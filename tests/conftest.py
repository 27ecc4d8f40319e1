"""Fixtures shared across the test packages."""

from __future__ import annotations

import contextlib

import pytest

from repro.opencl import dispatch


def _never_vectorise(*args):
    """Stand-in for ``dispatch._vec_item_ops``: no dispatch vectorises."""
    return None


@pytest.fixture
def scalar_tier(monkeypatch):
    """A context-manager factory: dispatches run inside
    ``with scalar_tier():`` skip the vectorised tier and execute on the
    scalar engines (warp-fold or lock-step generators), counting no
    ``dispatch.fallback``.  Tests use it as the scalar reference run."""

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(dispatch, "_vec_item_ops", _never_vectorise)
            yield

    return forced
