import pytest

from swindex import graph


@pytest.fixture
def searches(monkeypatch) -> list:
    """Record the sources of every search that looks up graph.bfs_nearest
    when it runs, as the distance helpers of graph.py do. Not counted: the
    calls construct.py makes through its own imported name (its
    `_search` calls), the matching constructor's `outward` scan, and the branch
    walks (graph._branch, behind is_two_connected and straightening)."""
    calls = []
    real = graph.bfs_nearest

    def counted(g, sources, limit=None):
        calls.append(sources)
        return real(g, sources, limit)

    monkeypatch.setattr(graph, "bfs_nearest", counted)
    return calls
