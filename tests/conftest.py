"""Shared fixtures."""

from __future__ import annotations

import pytest

from rivershare import analysis


@pytest.fixture
def forbid_node_rule(monkeypatch):
    """Fail any test that builds a Gauss-Legendre rule.

    Bound checks on `nodes` are tested with counts whose rule would need an
    enormous count x count matrix, so the rule must never be requested.
    """

    def fail(count):
        raise AssertionError(f"Gauss-Legendre rule requested with {count} nodes")

    monkeypatch.setattr(analysis, "_unit_interval_nodes", fail)
