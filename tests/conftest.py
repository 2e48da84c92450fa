"""Shared fixture: the canonical Painleve table (~15 ms to solve) is built
once per session."""

import pytest

from nearextreme import painleve


@pytest.fixture(scope="session")
def table():
    """Canonical Hastings-McLeod table on [-12, 20]."""
    return painleve.default_table()
