import pytest

from swindex import graph


@pytest.fixture
def searches(monkeypatch) -> list:
    """Record the sources of every breadth-first search the library runs;
    every search goes through graph.bfs_nearest."""
    calls = []
    real = graph.bfs_nearest

    def counted(g, sources, limit=None):
        calls.append(sources)
        return real(g, sources, limit)

    monkeypatch.setattr(graph, "bfs_nearest", counted)
    return calls
