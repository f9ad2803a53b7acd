"""Fixtures shared by the test modules."""

from unittest import mock

import pytest

from bispacelab import suites


@pytest.fixture
def processes(request):
    """Force the number of processes that run suites, the calling one
    included, to the test's parameter, or to 1 when it has none: then every
    suite runs in the test's own process, where its patches and counters
    see what the suite does."""
    count = getattr(request, "param", 1)
    with mock.patch.object(suites, "_worker_count", lambda suite_count: count):
        yield count
