"""Fixtures shared by the test modules."""

import pytest

from schurres.oracles import oracle_limit


@pytest.fixture
def set_oracle_limit(monkeypatch):
    """set_oracle_limit(value) sets SCHURRES_ORACLE_LIMIT, or unsets it for
    None, and resets the limit reader, which reads the variable once per
    process, so the next guard call reads the new setting.  The reader is
    reset again when the test ends, so the variable as monkeypatch restores
    it is read afresh and no test depends on the order the tests run in."""
    def set_limit(value):
        if value is None:
            monkeypatch.delenv("SCHURRES_ORACLE_LIMIT", raising=False)
        else:
            monkeypatch.setenv("SCHURRES_ORACLE_LIMIT", value)
        oracle_limit.cache_clear()

    yield set_limit
    oracle_limit.cache_clear()
