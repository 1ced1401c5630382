"""The ``reach`` marker: opt-in checks past the default ceilings.

A test marked ``@pytest.mark.reach`` is skipped unless MONODROMY_REACH is
set, and ``MONODROMY_REACH=1 pytest -m reach`` runs every such test.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "reach: opt-in check past the default ceilings, run with MONODROMY_REACH set")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("MONODROMY_REACH"):
        return
    skip = pytest.mark.skip(reason="opt-in: set MONODROMY_REACH=1")
    for item in items:
        if item.get_closest_marker("reach"):
            item.add_marker(skip)
