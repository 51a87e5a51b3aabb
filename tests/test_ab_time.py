"""Tests for how tools/ab_time.py summarizes paired timings.  The tool itself
times both trees' sweep layers; these tests check only its summary, on
hand-made timings."""

import importlib.util
import sys
from pathlib import Path

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
