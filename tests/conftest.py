"""Fixtures shared by the test modules."""

import pytest

from varbound import basis_search


@pytest.fixture
def short_search(monkeypatch):
    """The basis search cut to 2 restarts of at most 15 sweeps, for tests of
    the wiring around it; each compares the searches it checks with direct
    searches, which read the same constants."""
    monkeypatch.setattr(basis_search, "_RESTARTS", 2)
    monkeypatch.setattr(basis_search, "_MAX_ITERS", 15)
