"""The graph core shared by simple graphs and multigraphs."""

import pytest

from rigidkit.errors import InputError
from rigidkit.graphs import MultiGraph, SimpleGraph, complete_graph, complete_graph_on

V = (0, 1, 2)
E = ((0, 1), (2, 1))


def test_graph_types_stay_unequal():
    simple, multi = SimpleGraph(V, E), MultiGraph(V, E)
    assert simple.edges == multi.edges == ((0, 1), (1, 2))
    assert simple != multi and multi != simple
    assert simple == SimpleGraph(V[::-1], E[::-1])
    assert hash(simple) == hash(SimpleGraph(V[::-1], E[::-1]))
    assert multi == MultiGraph(V[::-1], E[::-1])
    assert hash(multi) == hash(MultiGraph(V[::-1], E[::-1]))
    assert repr(multi) == "MultiGraph(3 vertices, 2 edges)"


def test_only_a_simple_graph_refuses_a_repeated_edge():
    assert MultiGraph(V, E + ((1, 0),)).multiplicity(0, 1) == 2
    with pytest.raises(InputError, match=r"edge \(0, 1\) repeated"):
        SimpleGraph(V, E + ((1, 0),))
    for kind in (SimpleGraph, MultiGraph):
        with pytest.raises(InputError, match="outside the vertex set"):
            kind(V, ((0, 3),))
        with pytest.raises(InputError, match="loop edge"):
            kind(V, ((1, 1),))


def test_complete_graph_at_an_offset():
    g = complete_graph(5, offset=3)
    assert (g.vertices, g.edges) == (tuple(range(3, 8)), complete_graph_on(range(3, 8)).edges)
    assert g.edges[:2] == ((3, 4), (3, 5))
