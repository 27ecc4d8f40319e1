"""Fixtures shared across the test packages.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` Hypothesis profile, which
runs more examples for every property test that leaves
``max_examples`` to the profile; the default profile is Hypothesis's
own.
"""

from __future__ import annotations

import contextlib
import os

import pytest
from hypothesis import settings

from repro.opencl import dispatch

settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
