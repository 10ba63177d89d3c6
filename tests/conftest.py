import pytest

from swindex import graph


@pytest.fixture
def searches(monkeypatch) -> list:
    """Record the sources of every search that looks up graph.bfs_nearest
    when it runs, as the distance helpers of graph.py do. Not counted: the
    calls construct.py makes through its own imported name (its
    `_search` calls), the matching constructor's `outward` scan, and the branch
    walks (graph._branch, behind is_two_connected and straightening). A fact
    memoized on a graph (is_connected, twin_classes, twin_quotient,
    has_triangle) answers a repeat call on the same graph object with no
    search, so a test that counts the first search builds a fresh graph."""
    calls = []
    real = graph.bfs_nearest

    def counted(g, sources, limit=None):
        calls.append(sources)
        return real(g, sources, limit)

    monkeypatch.setattr(graph, "bfs_nearest", counted)
    return calls
