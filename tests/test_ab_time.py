"""Tests for tools/ab_time.py.  The tool times both trees' sweep layers;
these tests check its summary on hand-made timings, and its layers and
absent-layer report on this tree's own package, timing nothing."""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
# ab_time imports the ref export from its sibling same_bytes
sys.path.insert(0, str(_TOOLS))
_SPEC = importlib.util.spec_from_file_location("ab_time", _TOOLS / "ab_time.py")
ab_time = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_time)


def test_quartiles_of_odd_and_even_counts():
    assert ab_time.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab_time.quartiles([4.0, 1.0, 3.0, 2.0]) == pytest.approx((1.75, 2.5, 3.25))
    assert ab_time.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_count_paired_rounds_only():
    """A round counts as a win only when the tree is faster in that same
    round; a tie is no win."""
    ref = [10.0, 10.0, 20.0, 20.0, 15.0]
    tree = [9.0, 11.0, 19.0, 20.0, 25.0]
    summary = ab_time.summarize(ref, tree)
    assert summary["wins"] == 2 and summary["rounds"] == 5
    assert summary["ref"] == (10.0, 15.0, 20.0)
    assert summary["tree"] == (11.0, 19.0, 20.0)
    assert summary["ratio"] == pytest.approx(19.0 / 15.0)
    # the same times paired otherwise give another count: 9 < 10 alone
    assert ab_time.summarize(sorted(ref), sorted(tree))["wins"] == 1


def test_line_reads_in_microseconds():
    summary = ab_time.summarize([1.2e-4, 1.4e-4, 1.3e-4], [1.0e-4, 1.1e-4, 1.2e-4])
    line = ab_time.format_line("layer", summary)
    assert line == ("layer: ref 130.0 [125.0-135.0] us, tree 110.0 [105.0-115.0] us, "
                    "tree/ref 0.846, tree faster in 3 of 3 rounds")


ROOT = _TOOLS.parent
SIDES_LAYER = "relation_sides (25 rows)"


def test_relation_sides_layer_reads_the_count_path_moments():
    """The relation_sides layer times the moments of the 25-vector COUNTS
    stack: its sides equal the sampled columns of that stack bit for bit."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_layers")
    lx, ly = pkg["hermitian"].builtin_spin1()[:2]
    stack = np.vstack([ab_time.COUNTS, ab_time.COUNTS + np.eye(12), ab_time.COUNTS - np.eye(12)])
    sides = ab_time.layers(pkg)[SIDES_LAYER]()
    sweep = pkg["sweep"]
    table = sweep._sampled_columns(stack, sweep._count_constants(lx, ly))
    for column in ("var_lx", "var_ly", "lhs_prod", "lhs_sum", "rhs_eq1", "rhs_eq3", "rhs_eq4",
                   "rhs_eq6", "rhs_eq7"):
        want = table[:, sweep.VALUE_COLUMNS.index(column)]
        assert sides[sweep.KERNEL_KEYS[column]].tobytes() == want.tobytes(), column


def test_layer_a_tree_lacks_is_reported_absent():
    """A ref whose bounds module has no relation_sides: that layer alone is
    absent, at the ref, and the others still run on both sides."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_absent")
    lacking = dict(pkg, bounds=types.SimpleNamespace(evaluate_states=pkg["bounds"].evaluate_states,
                                                     evaluate_all=pkg["bounds"].evaluate_all))
    absent = ab_time.absent_layers({"ref": ab_time.layers(lacking), "tree": ab_time.layers(pkg)})
    assert list(absent) == [SIDES_LAYER]
    assert absent[SIDES_LAYER].startswith("absent at ref: AttributeError")


ESTIMATE_LAYER, STAGE_SIDES_LAYER = "_estimate (40 x 25 vectors)", "_sides (1 trial)"


def test_stage_layers_read_one_row_of_the_count_path():
    """The estimator layer estimates one row's (40, 25, 12) sigma stack, as
    run_sweep builds it for 40 trials of COUNTS; the sides layer gives one
    trial's table, the bits of _sampled_columns on the 25-vector stack."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_stages")
    sweep, fns = pkg["sweep"], ab_time.layers(pkg)
    constants = sweep._count_constants(*pkg["hermitian"].builtin_spin1()[:2])
    row = sweep._sigma_stack(np.tile(ab_time.COUNTS, (ab_time.ROW_TRIALS, 1)))
    estimate = fns[ESTIMATE_LAYER]()
    want = sweep._estimate(row, constants)
    assert len(estimate) == len(want) and row.shape == (40, 25, 12)
    for got, ref in zip(estimate, want):
        assert got.shape[:2] == (40, 25) and got.tobytes() == ref.tobytes()
    stack = np.vstack([ab_time.COUNTS, ab_time.COUNTS + np.eye(12), ab_time.COUNTS - np.eye(12)])
    assert fns[STAGE_SIDES_LAYER]().tobytes() == sweep._sampled_columns(stack, constants).tobytes()


def test_stage_layers_absent_at_a_tree_without_them():
    """A ref whose sweep module has neither _estimate nor _sides (the count
    path before its two stages): those two layers alone are absent, at the
    ref."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_stages_absent")
    sweep = types.SimpleNamespace(**{k: v for k, v in vars(pkg["sweep"]).items()
                                     if k not in ("_estimate", "_sides")})
    absent = ab_time.absent_layers({"ref": ab_time.layers(dict(pkg, sweep=sweep)),
                                    "tree": ab_time.layers(pkg)})
    assert list(absent) == [ESTIMATE_LAYER, STAGE_SIDES_LAYER]
    assert all(why.startswith("absent at ref: AttributeError") for why in absent.values())


HAAR_LAYER = "evaluate_all (one d=4 Haar state)"


def test_evaluate_all_layer_reads_one_haar_state():
    """The evaluate_all layer evaluates one d = 4 Haar state with a pair of
    distinct random Hermitian observables, as the haar workload does."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_haar")
    state, a, b = ab_time.haar_inputs(pkg["hermitian"])
    assert state.dim == a.dim == b.dim == 4 and not np.array_equal(a.matrix, b.matrix)
    report = ab_time.layers(pkg)[HAAR_LAYER]()
    assert report == pkg["bounds"].evaluate_all(state, a, b)
    assert list(report.results) == list(pkg["bounds"].RELATION_IDS)


def test_evaluate_all_layer_a_tree_lacks_is_reported_absent():
    """A ref whose bounds module has no evaluate_all: that layer alone is
    absent, at the ref."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_haar_absent")
    bounds = types.SimpleNamespace(**{k: v for k, v in vars(pkg["bounds"]).items()
                                      if k != "evaluate_all"})
    absent = ab_time.absent_layers({"ref": ab_time.layers(dict(pkg, bounds=bounds)),
                                    "tree": ab_time.layers(pkg)})
    assert list(absent) == [HAAR_LAYER]
    assert absent[HAAR_LAYER].startswith("absent at ref: AttributeError")


OPTIMIZE_LAYER = "run_sweep (optimize, 3 points)"


def test_optimize_layer_is_the_optimize_workload_sweep():
    """The optimize layer runs the sweep of ``--theta-steps 3
    --optimize-basis`` at the default counts and seed: both searched columns
    filled on every row, and the bits of that sweep run directly."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_optimize")
    sweep = pkg["sweep"]
    table, report, dense = ab_time.layers(pkg)[OPTIMIZE_LAYER]()
    want, _, _ = sweep.run_sweep(sweep.SweepConfig(thetas=sweep.theta_grid(3), optimize_basis=True))
    assert table.tobytes() == want.tobytes() and len(dense) == 0 and report.ok
    for column in ("rhs_eq2_opt", "rhs_eq5_opt"):
        assert not np.isnan(table[:, sweep.CSV_COLUMNS.index(column)]).any()


OPTIMIZE_BOUND_LAYER = "optimize_bound (eq5, 3 states)"


def test_optimize_bound_layer_is_eq5_over_the_optimize_workload_states():
    """The optimize_bound layer searches eq5 alone over the three family
    states of theta_grid(3): the bits of that call made directly."""
    pkg = ab_time.load(ROOT / "src", "varbound_ab_optimize_bound")
    photonics, search = pkg["photonics"], pkg["basis_search"]
    bases, values, trace = ab_time.layers(pkg)[OPTIMIZE_BOUND_LAYER]()
    states = [photonics.prepare_state(t) for t in pkg["sweep"].theta_grid(3)]
    want_bases, want_values, want = search.optimize_bound(
        "eq5", states, *pkg["hermitian"].builtin_spin1()[:2])
    assert [b.matrix.tobytes() for b in bases] == [b.matrix.tobytes() for b in want_bases]
    assert values == want_values and len(values) == 3
    assert trace.restart_histories == want.restart_histories and trace.winner == want.winner


def test_layer_only_the_ref_lacks_is_timed_on_the_tree():
    """A layer that the ref lacks is timed on the tree alone, and its line
    gives the tree's median and quartiles beside the absent report; one
    that the tree lacks is not timed at all."""

    def lacking():
        raise AttributeError("no such layer")

    fns = {"ref": {"both": lambda: None, "new": lacking, "gone": lambda: None},
           "tree": {"both": lambda: None, "new": lambda: None, "gone": lacking}}
    absent, numbers, times = ab_time.measure(fns, 3)
    assert list(absent) == ["new", "gone"] and list(numbers) == ["both", "new"]
    assert absent["new"].startswith("absent at ref: AttributeError")
    assert absent["gone"].startswith("absent at tree: AttributeError")
    assert {side: len(t) for side, t in times["both"].items()} == {"ref": 3, "tree": 3}
    assert {side: len(t) for side, t in times["new"].items()} == {"tree": 3}
    both, new, gone = ab_time.report_lines(fns["tree"], absent, numbers, times)
    assert both.startswith("both: ref ") and "tree faster in" in both
    assert new == (f"new: {absent['new']}; tree {ab_time._us(ab_time.quartiles(times['new']['tree']))}"
                   f" us ({numbers['new']} calls per loop)")
    assert gone == f"gone: {absent['gone']}"
