"""Tests for how tools/same_bytes.py compares two runs of a sweep command.
The tool itself runs five sweeps on each side; these tests check only its
comparison, on hand-made results."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_SPEC = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)


def _result(timestamp="2026-01-01T00:00:00", **changes):
    """A result of ``same_bytes.run``, with ``changes`` to its fields."""
    payload = {"config_hash": "abc", "rows": [{"j": 0, "lhs_sum": 1.5}], "timestamp": timestamp}
    result = {"exit code": 0, "stdout": b"wrote out/sweep.json\nverdict: ok\n",
              "sweep.csv": b"j,theta\n0,0.0\n", "dense.csv": None,
              "sweep.json": json.dumps(payload, sort_keys=True).encode(), "verify exit code": 0}
    return result | changes


def test_timestamp_alone_is_no_difference():
    assert same_bytes.differences(_result(), _result(timestamp="2027-12-31T23:59:59")) == []


def test_each_differing_field_is_named():
    ref = _result()
    for key, value in (("exit code", 1), ("stdout", b"verdict: VIOLATION\n"),
                       ("sweep.csv", b"j,theta\n0,0.1\n"), ("dense.csv", b"j,theta\n"),
                       ("sweep.json", ref["sweep.json"].replace(b"1.5", b"1.50")),
                       ("sweep.json", None), ("verify exit code", 1)):
        assert same_bytes.differences(ref, _result(**{key: value})) == [key], key
        assert same_bytes.differences(_result(**{key: value}), ref) == [key], key
    assert same_bytes.differences(ref, _result(**{"exit code": 2, "sweep.csv": None})) == [
        "exit code", "sweep.csv"]
