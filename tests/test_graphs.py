"""The graph core shared by simple graphs and multigraphs."""

import pytest

from rigidkit.errors import InputError, NestingError
from rigidkit.graphs import (
    MultiGraph,
    SimpleGraph,
    Tower,
    complete_graph,
    complete_graph_on,
    cycle_graph,
)

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


def test_tower_checks_nesting_when_built():
    k3, k4 = complete_graph(3), complete_graph(4)
    c4 = cycle_graph(4)
    for stages, target, index, message in (
        ([k3, k4, k3], None, 2, "stage 2 does not contain stage 1"),
        ([k4, c4], None, 1, "stage 1 does not contain stage 0"),
        ([k3, k4], c4, 1, "final stage is not contained in the target"),
    ):
        with pytest.raises(NestingError) as err:
            Tower(stages, target)
        assert (err.value.index, str(err.value)) == (index, message)
    assert Tower([c4.without_vertex(3), k3], k4).depth == 2
    with pytest.raises(InputError, match="at least one stage"):
        Tower([])


def test_tower_refuses_multigraph_stages():
    two = MultiGraph(range(2), [(0, 1)])
    for stages in ([two, MultiGraph(range(3), [(0, 1), (1, 2)])], [two]):
        with pytest.raises(InputError) as err:
            Tower(stages)
        assert str(err.value) == (
            "a tower takes SimpleGraph or MultiBodyGraph stages, not MultiGraph"
        )
