"""Shared test settings.

``@pytest.mark.slow(reason=...)`` marks a long run: it is skipped, with its
reason, unless SPLITMODEL_SLOW=1.  Where hypothesis is installed, its
"splitmodel" profile is loaded: derandomized, so that every run draws the
same examples, and with no example database written to disk.
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("splitmodel", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("splitmodel")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow(reason): long run, skipped unless SPLITMODEL_SLOW=1")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SPLITMODEL_SLOW") == "1":
        return
    for item in items:
        mark = item.get_closest_marker("slow")
        if mark is not None:
            reason = f"{mark.kwargs['reason']}; set SPLITMODEL_SLOW=1"
            item.add_marker(pytest.mark.skip(reason=reason))
