import json
from fractions import Fraction

import numpy as np
import pytest

from rigidkit import jsonio
from rigidkit.bodybar import MultiBodyGraph
from rigidkit.catalog import SimplicialMeta, generate
from rigidkit.errors import InputError, PlacementError
from rigidkit.frameworks import NormSpec, Placement
from rigidkit.graphs import SimpleGraph, Tower, complete_graph
from rigidkit.moves import (
    ConstructionChain,
    EdgeMove,
    VertexExtension,
    VertexSplit3D,
    VertexTo4Cycle,
    VertexToK4,
    find_chain,
    verify_chain,
)


def roundtrip(obj):
    return json.loads(json.dumps(obj))


# ---- numbers --------------------------------------------------------------


def test_format_number_kinds():
    assert jsonio.format_number(7) == 7
    assert jsonio.format_number(Fraction(3, 4)) == "3/4"
    assert jsonio.format_number(Fraction(8, 2)) == 4
    assert jsonio.format_number(0.1) == "0.10000000000000001"
    with pytest.raises(InputError):
        jsonio.format_number(True)


def test_parse_number_kinds():
    assert jsonio.parse_number(12) == 12
    assert jsonio.parse_number("12") == 12
    assert jsonio.parse_number("-3") == -3
    assert jsonio.parse_number(1.5) == 1.5
    assert jsonio.parse_number("5/3") == Fraction(5, 3)
    with pytest.raises(InputError):
        jsonio.parse_number("wat")
    with pytest.raises(InputError):
        jsonio.parse_number("1/0")
    with pytest.raises(InputError):
        jsonio.parse_number(False)
    with pytest.raises(InputError):
        jsonio.parse_number(None)


def test_float_replay_is_exact():
    for x in (1 / 3, 2**0.5, -1e-9, 6.02e23):
        assert float(jsonio.format_number(x)) == x


def test_jsonable_walks_structures():
    out = jsonio.jsonable(
        {"a": (1, 0.5), "b": [Fraction(1, 3)], "c": np.array([2.0]), "n": None}
    )
    assert out == {
        "a": [1, "0.5"],
        "b": ["1/3"],
        "c": ["2"],
        "n": None,
    }
    with pytest.raises(InputError):
        jsonio.jsonable(object())


def test_number_convention_is_pinned():
    # numpy scalars and arrays follow the convention of the built-in numbers
    assert jsonio.format_number(np.int64(-7)) == -7
    assert jsonio.format_number(np.uint8(200)) == 200
    assert jsonio.format_number(np.float32(0.1)) == "0.10000000149011612"
    assert jsonio.format_number(np.float64(1 / 3)) == "0.33333333333333331"
    assert jsonio.format_number(np.float64(2.0)) == "2"
    assert jsonio.format_number(Fraction(-3, 4)) == "-3/4"
    out = jsonio.jsonable(
        {
            "row": np.array([1.5, -2.0, 1 / 3]),
            "grid": np.array([[1, 2], [3, 4]]),
            "f32": np.array([[0.1]], dtype=np.float32),
            7: {"q": [Fraction(5, 1), Fraction(1, 3), np.float32(0.1)]},
            "t": (np.int64(9), None, True, "s"),
        }
    )
    assert out == {
        "row": ["1.5", "-2", "0.33333333333333331"],
        "grid": [[1, 2], [3, 4]],
        "f32": [["0.10000000149011612"]],
        "7": {"q": [5, "1/3", "0.10000000149011612"]},
        "t": [9, None, True, "s"],
    }
    with pytest.raises(InputError):
        jsonio.format_number(True)
    for x in (np.True_, np.array([True]), np.complex128(1)):
        with pytest.raises(InputError):
            jsonio.jsonable(x)


# ---- graphs ---------------------------------------------------------------


def test_graph_roundtrip_sparse_labels():
    g = SimpleGraph([0, 5, 7], [(5, 0), (5, 7)])
    back = jsonio.graph_from_json(roundtrip(jsonio.graph_to_json(g)))
    assert back.vertices == (0, 5, 7)
    assert set(back.edges) == {(0, 5), (5, 7)}


def test_graph_rejects_unknown_and_missing_fields():
    with pytest.raises(InputError, match="unknown fields"):
        jsonio.graph_from_json({"vertices": [0], "edges": [], "color": "red"})
    with pytest.raises(InputError, match="missing fields"):
        jsonio.graph_from_json({"vertices": [0]})
    with pytest.raises(InputError):
        jsonio.graph_from_json({"vertices": [0, 1], "edges": [[0, 1, 2]]})
    with pytest.raises(InputError):
        jsonio.graph_from_json({"vertices": ["a"], "edges": []})
    with pytest.raises(InputError):
        jsonio.graph_from_json([1, 2])


# ---- placements and norms -------------------------------------------------


def test_placement_roundtrip_exact():
    p = Placement(2, {0: (1 / 3, -2.25), 4: (0.0, 1e-17)})
    back = jsonio.placement_from_json(roundtrip(jsonio.placement_to_json(p)))
    assert back.dim == 2
    assert back[0] == p[0]
    assert back[4] == p[4]


def test_placement_rejects_bad_shapes():
    with pytest.raises(InputError, match="not a vertex label"):
        jsonio.placement_from_json({"x": [0, 0]})
    with pytest.raises(InputError, match="expected 2"):
        jsonio.placement_from_json({"0": [0, 0], "1": [1, 2, 3]})
    with pytest.raises(InputError):
        jsonio.placement_from_json({})
    with pytest.raises(InputError):
        jsonio.placement_from_json({"0": []})


@pytest.mark.parametrize(
    "coord",
    [float("nan"), float("inf"), -float("inf"), 10**333, Fraction(10**400, 3)],
    ids=["nan", "inf", "-inf", "334-digit", "huge-fraction"],
)
def test_placement_coordinates_must_be_finite(coord):
    message = "vertex 7 has a coordinate that is not a finite float"
    with pytest.raises(PlacementError, match=message):
        Placement(2, {0: (0.0, 0.0), 7: (1.0, coord)})
    raw = roundtrip(jsonio.jsonable({"0": [0, 0], "7": [1, coord]}))
    with pytest.raises(PlacementError, match=message):
        jsonio.placement_from_json(raw)


@pytest.mark.parametrize("q,expect", [(2, 2), (3, 3), (Fraction(5, 2), "5/2")])
def test_norm_roundtrip(q, expect):
    norm = NormSpec(2, q)
    obj = jsonio.norm_to_json(norm)
    assert obj == {"d": 2, "q": expect}
    assert jsonio.norm_from_json(roundtrip(obj)) == norm


@pytest.mark.parametrize("q", [1025, "2049/2", "1e9"])
def test_norm_field_past_q_1024_is_refused(q):
    assert jsonio.norm_from_json({"d": 2, "q": 1024}) == NormSpec(2, 1024)
    with pytest.raises(InputError, match=r"\(1, 1024\]"):
        jsonio.norm_from_json({"d": 2, "q": q})


def test_framework_roundtrip():
    g = complete_graph(3)
    p = Placement(2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0)})
    norm = NormSpec(2, 3)
    obj = roundtrip(jsonio.framework_to_json(g, p, norm))
    g2, p2, n2 = jsonio.framework_from_json(obj)
    assert g2.edges == g.edges
    assert p2.coords == p.coords
    assert n2 == norm
    with pytest.raises(InputError, match="missing fields"):
        jsonio.framework_from_json(jsonio.graph_to_json(g))


def test_framework_placement_must_cover_vertices():
    g = complete_graph(3)
    p = Placement(2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 1.0)})
    obj = roundtrip(jsonio.framework_to_json(g, p, NormSpec(2, 3)))
    del obj["placement"]["2"]
    with pytest.raises(InputError, match=r"placement misses vertices \[2\]"):
        jsonio.framework_from_json(obj)


def test_loose_input_variants():
    g = complete_graph(3)
    got, p, norm = jsonio.loose_input_from_json(jsonio.graph_to_json(g))
    assert (p, norm) == (None, None)
    assert got.n_edges == 3

    obj = jsonio.graph_to_json(g)
    obj["placement"] = {"0": [0, 0], "1": [1, 0]}
    with pytest.raises(InputError, match="misses vertices"):
        jsonio.loose_input_from_json(obj)


def test_catalog_family_serialization():
    fam = generate("simplicial_holes", holes=(4,), size=2)
    obj = jsonio.family_to_json(fam)
    assert obj["meta"] == {"connectivity": 1, "holeCycles": [4], "refinement": 1}
    assert "placement" not in obj
    assert jsonio.meta_from_json(roundtrip(obj["meta"])) == fam.meta

    placed = generate("whirlpool", layers=1)
    with_p = jsonio.family_to_json(placed)
    assert set(with_p["placement"]) == {str(v) for v in placed.graph.vertices}
    bare = jsonio.family_to_json(placed, include_placement=False)
    assert "placement" not in bare


# ---- towers ---------------------------------------------------------------


def test_tower_roundtrip_with_target():
    t = Tower([complete_graph(2), complete_graph(3)], target=complete_graph(4))
    back = jsonio.tower_from_json(roundtrip(jsonio.tower_to_json(t)))
    assert back.depth == 2
    assert back.target.n_edges == 6

    no_target = jsonio.tower_from_json({"stages": [jsonio.graph_to_json(complete_graph(2))]})
    assert no_target.target is None
    with pytest.raises(InputError):
        jsonio.tower_from_json({"stages": []})
    with pytest.raises(InputError, match="unknown fields"):
        jsonio.tower_from_json({"stages": [], "depth": 3})


# ---- multi-body -----------------------------------------------------------


def multibody_fixture():
    body = lambda off: [  # noqa: E731
        (off + i, off + j) for i in range(3) for j in range(i + 1, 3)
    ]
    g = SimpleGraph(range(6), body(0) + body(3) + [(0, 3), (1, 4)])
    return MultiBodyGraph(g, [(0, 1, 2), (3, 4, 5)], [(0, 3), (1, 4)])


def test_multibody_roundtrip():
    m = multibody_fixture()
    back = jsonio.multibody_from_json(roundtrip(jsonio.multibody_to_json(m)))
    assert back.bodies == m.bodies
    assert back.inter_body_edges == m.inter_body_edges


def test_multibody_rejects_inconsistent_bars():
    obj = jsonio.multibody_to_json(multibody_fixture())
    obj["interbody_edges"] = [[0, 3]]
    with pytest.raises(InputError, match="inter-body"):
        jsonio.multibody_from_json(obj)


# ---- moves and chains -----------------------------------------------------

MOVES = [
    VertexExtension(5, (0, 1)),
    EdgeMove((0, 1), 6, (0, 1, 2)),
    VertexToK4(2, (7, 8, 9), ((2, 1),)),
    VertexTo4Cycle(1, (0, 2), 10, (3,)),
    VertexSplit3D(0, (1, 2), 11, (4,)),
]


@pytest.mark.parametrize("move", MOVES, ids=lambda m: m.kind)
def test_move_roundtrip(move):
    assert jsonio.move_from_json(roundtrip(jsonio.move_to_json(move))) == move


def test_move_parse_errors():
    with pytest.raises(InputError, match="unknown move kind"):
        jsonio.move_from_json({"kind": "teleport"})
    with pytest.raises(InputError, match="kind"):
        jsonio.move_from_json({"vertex": 1})
    with pytest.raises(InputError, match="incomplete"):
        jsonio.move_from_json({"kind": "vertex_ext", "vertex": 5})
    with pytest.raises(InputError, match="unknown fields"):
        jsonio.move_from_json(
            {"kind": "vertex_ext", "vertex": 5, "neighbors": [0, 1], "speed": 3}
        )


def test_chain_roundtrip_replays():
    target = SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    chain = find_chain(complete_graph(2), target, "euclidean")
    back = jsonio.chain_from_json(roundtrip(jsonio.chain_to_json(chain)))
    assert back.moves == chain.moves
    assert verify_chain(back, "euclidean").ok
    assert set(back.final.edges) == set(target.edges)


def test_chain_rejects_bad_shape():
    with pytest.raises(InputError):
        jsonio.chain_from_json({"start": jsonio.graph_to_json(complete_graph(2))})
    with pytest.raises(InputError):
        jsonio.chain_from_json(
            {"start": jsonio.graph_to_json(complete_graph(2)), "moves": {}}
        )
