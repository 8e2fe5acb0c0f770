import pytest

import czeta.zeta


@pytest.fixture
def builds(monkeypatch):
    """An empty store of held zeta tables, and the (params, kmax) of every table
    `zeta_table` builds while the test runs."""
    built, build = [], czeta.zeta._build_table

    def counted(params, kmax):
        built.append((params, kmax))
        return build(params, kmax)

    monkeypatch.setattr(czeta.zeta, "_tables", {})
    monkeypatch.setattr(czeta.zeta, "_build_table", counted)
    return built
