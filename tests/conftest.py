"""Fixtures every test module shares."""

import pytest

from unihydro import problems


@pytest.fixture(autouse=True)
def no_reference_kept():
    """Each test starts with no reference kept by ``problems.reference`` from an
    earlier test, so a count of hidden reference runs does not depend on the
    order the tests run in."""
    problems._last_reference.clear()
