"""Graph constructors, parsing, and structural predicates."""

from __future__ import annotations

import random

import pytest

import corpus
from boolgossip import graphs
from boolgossip.errors import ConstructionError, ParseError


def test_make_standard_shapes():
    assert graphs.make("line", 4).edges == ((1, 2), (2, 3), (3, 4))
    assert graphs.make("cycle", 4).edges == ((1, 2), (2, 3), (3, 4), (1, 4))
    assert graphs.make("star", 4).edges == ((1, 2), (1, 3), (1, 4))
    assert graphs.make("complete", 3).edges == ((1, 2), (1, 3), (2, 3))
    assert len(graphs.make("complete", 6).edges) == 15


def test_make_validation():
    with pytest.raises(ConstructionError):
        graphs.make("cycle", 2)
    with pytest.raises(ConstructionError):
        graphs.make("star", 2)
    with pytest.raises(ConstructionError):
        graphs.make("line", 1)
    with pytest.raises(ConstructionError):
        graphs.make("moebius", 5)


def test_make_regular():
    g = graphs.make("regular", 10, seed=3, d=4)
    assert all(g.degree(i) == 4 for i in range(1, 11))
    again = graphs.make("regular", 10, seed=3, d=4)
    assert g.edges == again.edges
    other = graphs.make("regular", 10, seed=4, d=4)
    assert isinstance(other, graphs.Graph)
    with pytest.raises(ConstructionError):
        graphs.make("regular", 5, seed=1, d=3)  # odd n*d
    with pytest.raises(ConstructionError):
        graphs.make("regular", 4, seed=1, d=4)  # d >= n
    with pytest.raises(ConstructionError):
        graphs.make("regular", 4, seed=1)  # missing d


def test_graph_invariants():
    g = graphs.Graph(4, ((3, 1), (1, 2)))
    assert g.edges == ((1, 3), (1, 2))  # endpoints ordered, input order kept
    assert g.neighbors(1) == (2, 3)
    assert g.degree(4) == 0
    with pytest.raises(ConstructionError):
        graphs.Graph(1, ())
    with pytest.raises(ConstructionError):
        graphs.Graph(3, ((1, 1),))
    with pytest.raises(ConstructionError):
        graphs.Graph(3, ((1, 2), (2, 1)))
    with pytest.raises(ConstructionError):
        graphs.Graph(3, ((1, 4),))


def test_parse_edge_list():
    g = graphs.parse_edge_list("1 2\n2 3")
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))
    g = graphs.parse_edge_list("# comment\n\nn=5\n1 2\n2 3\n")
    assert g.n == 5
    assert g.degree(5) == 0


def test_parse_edge_list_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        graphs.parse_edge_list("1 2\n2 2")
    with pytest.raises(ParseError, match="line 3"):
        graphs.parse_edge_list("1 2\n2 3\n2 x")
    with pytest.raises(ParseError, match="line 2"):
        graphs.parse_edge_list("1 2\n2 1")
    with pytest.raises(ParseError):
        graphs.parse_edge_list("1 2 3")
    with pytest.raises(ParseError):
        graphs.parse_edge_list("n=2\n1 3")
    with pytest.raises(ParseError):
        graphs.parse_edge_list("# nothing\n")


def test_serialize_round_trip():
    rng = random.Random(9)
    import corpus

    for _ in range(20):
        g = corpus.random_connected_graph(rng.randrange(2, 9), rng)
        text = f"n={g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges)
        back = graphs.parse_edge_list(text)
        assert back.n == g.n
        assert back.edges == g.edges


def test_connectivity_and_coloring():
    assert graphs.is_connected(graphs.make("line", 6))
    assert not graphs.is_connected(graphs.Graph(4, ((1, 2), (3, 4))))
    assert graphs.bipartition(graphs.make("cycle", 5)) is None
    colors = graphs.bipartition(graphs.make("cycle", 6))
    assert colors is not None
    g = graphs.make("cycle", 6)
    assert all(colors[i] != colors[j] for i, j in g.edges)
    assert graphs.has_odd_cycle(graphs.make("complete", 4))
    assert not graphs.has_odd_cycle(graphs.make("star", 7))


def _fresh_bfs(g):
    """(connected, two-colorable) from a BFS over every component."""
    color = {}
    components = 0
    bipartite = True
    for root in range(1, g.n + 1):
        if root in color:
            continue
        components += 1
        color[root] = 0
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for a, b in g.edges:
                if u not in (a, b):
                    continue
                v = b if u == a else a
                if v not in color:
                    color[v] = color[u] ^ 1
                    frontier.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    return components == 1, bipartite


def test_cached_predicates_match_fresh_bfs():
    rng = random.Random(8)
    for _ in range(200):
        g = corpus.random_connected_graph(rng.randrange(2, 10), rng)
        # Dropping an edge disconnects a tree part of the time.
        cut = graphs.Graph(g.n, g.edges[1:])
        for h in (g, cut):
            connected, bipartite = _fresh_bfs(h)
            for _ in range(2):  # computed once, then read from the cache
                assert graphs.is_connected(h) == connected
                assert graphs.has_odd_cycle(h) == (not bipartite)
                assert (graphs.bipartition(h) is None) == (not bipartite)


def test_classify_shape():
    tag = graphs.ShapeTag
    assert graphs.classify_shape(graphs.make("line", 2)) is tag.LINE
    for n in range(2, 33):
        assert graphs.classify_shape(graphs.make("line", n)) is tag.LINE
    for n in range(3, 12):
        g = graphs.make("cycle", n)
        assert graphs.classify_shape(g) is tag.CYCLE
        assert graphs.has_odd_cycle(g) == (n % 2 == 1)
    assert graphs.classify_shape(graphs.make("star", 6)) is tag.STAR
    spider = graphs.Graph(6, ((1, 2), (2, 3), (3, 4), (3, 5), (5, 6)))
    assert graphs.classify_shape(spider) is tag.TREE
    paw = graphs.parse_edge_list("1 2\n2 3\n3 1\n3 4")
    assert graphs.classify_shape(paw) is tag.GENERAL_ODD
    theta = graphs.Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)))
    assert graphs.classify_shape(theta) is tag.GENERAL_BIPARTITE
    split = graphs.Graph(4, ((1, 2), (3, 4)))
    assert not graphs.is_connected(split)
    assert graphs.classify_shape(split) is tag.GENERAL_BIPARTITE


def test_triangle_is_cycle_shape():
    # A triangle classifies as a cycle (with an odd cycle), not as general.
    g = graphs.make("cycle", 3)
    assert graphs.classify_shape(g) is graphs.ShapeTag.CYCLE
    assert graphs.has_odd_cycle(g)


def test_to_dot():
    g = graphs.make("star", 4)
    text = graphs.to_dot(g)
    assert text.startswith("graph G {")
    assert text.count(" -- ") == 3
    for i in range(1, 5):
        assert f"  {i};" in text
