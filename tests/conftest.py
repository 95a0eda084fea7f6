"""Shared fixtures."""

import pytest

from anka.values import Table


@pytest.fixture
def checked_tables(monkeypatch):
    """Build every table through the checking constructor: operators and
    decoders trust what they build, so under this fixture each cell they
    produce is still checked against its column's type."""
    monkeypatch.setattr(
        Table, "trusted", classmethod(lambda cls, schema, rows: cls(schema, rows))
    )
