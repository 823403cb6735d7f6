import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import budget

import rigidkit
from rigidkit import catalog, jsonio
from rigidkit.cli import run
from rigidkit.errors import InconsistencyError
from rigidkit.frameworks import NormSpec, Placement, RANK_EPS
from rigidkit.graphs import SimpleGraph, Tower, complete_graph
from rigidkit.svg import render_svg

SQRT3 = 3**0.5


def fig_k3():
    g = complete_graph(3)
    p = Placement(2, {0: (0.0, 0.0), 1: (-SQRT3, 1.0), 2: (SQRT3, 1.0)})
    return g, p


def write_json(path, obj):
    path.write_text(json.dumps(jsonio.jsonable(obj)))
    return str(path)


@pytest.fixture
def invoke(monkeypatch, capsys):
    def call(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = run(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return call


# ---- svg ------------------------------------------------------------------


def square_framework():
    g = SimpleGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Placement(2, {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (2.0, 2.0), 3: (0.0, 2.0)})
    return g, p


def test_render_svg_structure():
    g, p = square_framework()
    out = render_svg(g, p)
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")
    assert out.count('stroke="#444444"') == 4
    assert out.count("<circle ") == 4
    assert out.count("<text ") == 4
    assert render_svg(g, p) == out


def test_render_svg_labels_off():
    g, p = square_framework()
    assert "<text " not in render_svg(g, p, labels=False)


def test_render_svg_arrow_scale():
    g, p = square_framework()
    out = render_svg(g, p, flex={0: (1.0, 0.0), 1: (0.0, 0.5), 2: (0, 0), 3: (0, 0)})
    reds = re.findall(
        r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)" '
        r'stroke="#c0392b"',
        out,
    )
    assert len(reds) == 2
    lengths = sorted(
        ((float(x2) - float(x1)) ** 2 + (float(y2) - float(y1)) ** 2) ** 0.5
        for x1, y1, x2, y2 in reds
    )
    dots = re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', out)
    xs = [float(x) for x, _ in dots]
    ys = [float(y) for _, y in dots]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    # fastest vertex gets 15% of the box, the half-speed one half that
    assert lengths[1] / span == pytest.approx(0.15, rel=1e-2)
    assert lengths[0] / lengths[1] == pytest.approx(0.5, rel=1e-2)
    assert out.count("<polyline ") == 2


def test_render_svg_rejects_bad_input():
    g, p = square_framework()
    with pytest.raises(Exception, match="plane"):
        render_svg(g, Placement(3, {v: (0.0, 0.0, float(v)) for v in range(4)}))
    with pytest.raises(Exception, match="misses"):
        render_svg(g, Placement(2, {0: (0.0, 0.0)}))


# ---- analyze --------------------------------------------------------------


def test_analyze_framework_file(invoke, tmp_path):
    g, p = fig_k3()
    path = write_json(
        tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(2, 3))
    )
    code, out, _ = invoke("analyze", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["version"] == rigidkit.__version__
    assert rep["norm"] == {"d": 2, "q": 3}
    assert rep["seed"] is None
    assert rep["trials"] is None
    assert float(rep["tolerance"]) == RANK_EPS
    assert rep["flexDim"] == 1
    assert rep["rigid"] is False
    assert rep["generic"] is False


def test_analyze_generic_from_stdin(invoke):
    text = json.dumps(jsonio.graph_to_json(complete_graph(4)))
    code, out, _ = invoke(
        "analyze", "--generic", "--norm", "d=2,q=2", "--seed", "3", stdin=text
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["rigid"] is True
    assert rep["generic"] is True
    assert rep["combinatorialCrossCheck"] is True
    assert rep["seed"] == 3
    assert rep["trials"] == 5


def test_analyze_is_deterministic(invoke, tmp_path):
    path = write_json(tmp_path / "g.json", jsonio.graph_to_json(complete_graph(4)))
    runs = {invoke("analyze", "--generic", "--norm", "d=3,q=2", path) for _ in range(2)}
    assert len(runs) == 1


def test_analyze_needs_placement_or_generic(invoke):
    text = json.dumps(jsonio.graph_to_json(complete_graph(3)))
    code, _, err = invoke("analyze", "--norm", "d=2,q=2", stdin=text)
    assert code == 1
    assert "placement" in err


@pytest.mark.parametrize("keys", [("1", "01"), ("10", "1_0")])
def test_analyze_refuses_two_placement_keys_for_one_vertex(invoke, keys):
    g, p = fig_k3()
    doc = jsonio.framework_to_json(g, p, NormSpec(2, 2))
    doc["placement"].update({k: [0.5, 0.5] for k in keys})
    code, out, err = invoke("analyze", stdin=json.dumps(doc))
    assert (code, out) == (1, "")
    assert f"placement keys {keys[0]!r} and {keys[1]!r} both name vertex {int(keys[0])}" in err


def test_analyze_needs_a_norm(invoke):
    text = json.dumps(jsonio.graph_to_json(complete_graph(3)))
    code, _, err = invoke("analyze", "--generic", stdin=text)
    assert code == 1
    assert "norm" in err


@pytest.mark.parametrize("spec", ["d=2,q=1/0", "d=2,q=2,q=3"])
def test_unreadable_norm_is_one_error_line(invoke, spec):
    text = json.dumps(jsonio.graph_to_json(complete_graph(3)))
    code, out, err = invoke("analyze", "--generic", "--norm", spec, stdin=text)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("rigidkit: ")


@pytest.mark.parametrize("d", ["x", "2.5"])
def test_non_integer_dimension_is_one_error_line_naming_d(invoke, d):
    text = json.dumps(jsonio.graph_to_json(complete_graph(3)))
    code, out, err = invoke("analyze", "--generic", "--norm", f"d={d},q=2", stdin=text)
    assert (code, out) == (1, "")
    assert err == f"rigidkit: dimension d must be an integer, got '{d}'\n"


def _python_m(*argv, cwd, timeout=60):
    """`python -m rigidkit argv` in a fresh process: exit code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(rigidkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rigidkit", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_norm_past_q_1024_is_refused_at_once(tmp_path):
    # At q = 5000 a sampled matrix overflows, and an SVD of it may not
    # return; the norm is refused before any is built.
    c4 = SimpleGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    write_json(tmp_path / "c4.json", jsonio.graph_to_json(c4))
    code, out, err = _python_m(
        "analyze", "--generic", "--norm", "d=2,q=5000", "c4.json", cwd=tmp_path, timeout=10
    )
    assert (code, out) == (1, "")
    assert err == "rigidkit: norm exponent must lie in (1, 1024], got 5000\n"


def test_overflowing_placement_is_one_error_line(tmp_path):
    g = complete_graph(3)
    p = Placement(2, {0: (1e200, 0.0), 1: (-1e200, 1e200), 2: (0.0, -1e200)})
    write_json(tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(2, 3)))
    code, out, err = _python_m("analyze", "f.json", cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith("rigidkit: ") and err.count("\n") == 1
    assert "q = 3" in err and "RuntimeWarning" not in err


def test_python_m_prints_the_version(tmp_path):
    assert _python_m("--version", cwd=tmp_path) == (0, f"{rigidkit.__version__}\n", "")
    assert rigidkit.__version__ == "0.1.0"


def test_python_m_refuses_an_oversized_family(tmp_path):
    code, out, err = _python_m("catalog", "complete", "--params", "n=100000000000", cwd=tmp_path)
    assert (code, out) == (1, "")
    assert err == (
        f"rigidkit: complete would have more than {catalog.MAX_FAMILY_EDGES} edges, "
        "the most the catalog builds\n"
    )


# ---- sparsity -------------------------------------------------------------

K4_TEXT = json.dumps({"vertices": [0, 1, 2, 3], "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]})


def test_sparsity_violation_carries_witness(invoke):
    code, out, _ = invoke("sparsity", "--count", "2,3", stdin=K4_TEXT)
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == {"k": 2, "l": 3}
    assert rep["sparse"] is False
    assert len(rep["witness"]["edges"]) > 2 * len(rep["witness"]["vertices"]) - 3


def test_sparsity_tight_case(invoke):
    code, out, _ = invoke("sparsity", "--count", "2,2", stdin=K4_TEXT)
    assert code == 0
    rep = json.loads(out)
    assert (rep["sparse"], rep["tight"], rep["witness"]) == (True, True, None)


def test_sparsity_rejects_bad_count(invoke):
    code, _, err = invoke("sparsity", "--count", "2;3", stdin=K4_TEXT)
    assert code == 1
    assert err


def test_sparsity_requires_count_flag(invoke, tmp_path):
    path = write_json(tmp_path / "g.json", jsonio.graph_to_json(complete_graph(4)))
    assert invoke("sparsity", path)[0] == 1


# ---- chain ----------------------------------------------------------------


def test_chain_euclidean(invoke, tmp_path):
    src = write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(2)))
    two_tree = SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    dst = write_json(tmp_path / "b.json", jsonio.graph_to_json(two_tree))
    code, out, _ = invoke("chain", "--mode", "euclidean", "--from", src, "--to", dst)
    assert code == 0
    rep = json.loads(out)
    assert rep["verified"] is True
    assert rep["count"] == {"k": 2, "l": 3}
    assert rep["stageCount"] == 3
    assert [m["kind"] for m in rep["moves"]] == ["vertex_ext", "edge_move"]


def test_chain_qnorm_contracts_k4(invoke, tmp_path):
    src = write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(1)))
    dst = write_json(tmp_path / "b.json", jsonio.graph_to_json(complete_graph(4)))
    code, out, _ = invoke("chain", "--mode", "qnorm", "--from", src, "--to", dst)
    assert code == 0
    rep = json.loads(out)
    assert rep["verified"] is True
    assert "vertex_to_k4" in [m["kind"] for m in rep["moves"]]


def test_chain_rejects_loose_target(invoke, tmp_path):
    src = write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(2)))
    dst = write_json(tmp_path / "b.json", jsonio.graph_to_json(complete_graph(4)))
    code, _, err = invoke("chain", "--mode", "euclidean", "--from", src, "--to", dst)
    assert code == 1
    assert "tight" in err


# ---- tower ----------------------------------------------------------------


def tower_text(*sizes, target=None):
    t = Tower(
        [complete_graph(n) for n in sizes],
        target=complete_graph(target) if target else None,
    )
    return json.dumps(jsonio.jsonable(jsonio.tower_to_json(t)))


def test_tower_relative(invoke):
    code, out, _ = invoke(
        "tower", "--norm", "d=2,q=2", stdin=tower_text(3, 4, 5)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "relative"
    assert rep["status"] == "RigidCertified"
    assert rep["relativelyRigidPrefix"] == 3


def test_tower_sequential_and_laman(invoke):
    for mode, status in [("sequential", "SequentiallyRigid"), ("laman", "Rigid")]:
        code, out, _ = invoke(
            "tower", "--mode", mode, "--norm", "d=2,q=2", stdin=tower_text(3, 4)
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == status
        assert rep["witness"]


def test_tower_relative_tests_declared_final_stage(invoke, tmp_path):
    # the last stage adds a pendant vertex; with the target declared equal
    # to it the tower is finite, and its flexible final stage must show
    k3 = complete_graph(3)
    last = SimpleGraph(range(4), [*k3.edges, (2, 3)])
    t = Tower([k3, last], target=last)
    path = write_json(tmp_path / "t.json", jsonio.tower_to_json(t))
    code, out, _ = invoke("tower", "--norm", "d=2,q=2", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "FlexibleCertified"
    assert rep["relativelyRigidPrefix"] == 2


def test_tower_laman_count_follows_exponent(invoke):
    # a bare triangle cannot span a (2,2)-tight stage, so q=3 must refuse
    # the same tower that q=2 certifies
    code, out, _ = invoke(
        "tower", "--mode", "laman", "--norm", "d=2,q=3", stdin=tower_text(3, 4)
    )
    assert code == 0
    assert json.loads(out)["status"] == "NotCertified"


def test_tower_planar_modes_reject_3d(invoke):
    code, _, err = invoke(
        "tower", "--mode", "laman", "--norm", "d=3,q=2", stdin=tower_text(3, 4)
    )
    assert code == 1
    assert "d=2" in err


def test_tower_sequential_rejects_3d_in_one_line(invoke):
    code, out, err = invoke(
        "tower", "--mode", "sequential", "--norm", "d=3,q=2", stdin=tower_text(3, 4)
    )
    assert (code, out) == (1, "")
    assert err == "rigidkit: sequential certificates are planar; use --norm d=2\n"


def test_tower_at_large_q_certifies_hinged_blocks_flexible(invoke, tmp_path):
    # At q = 200 some rows of the hinged blocks' float matrix are so small
    # that their norms underflow to zero.
    k4 = complete_graph(4).edges
    blocks = SimpleGraph(range(8), k4 + tuple((a + 4, b + 4) for a, b in k4))
    hinged = SimpleGraph(range(8), blocks.edges + ((0, 4),))
    path = write_json(tmp_path / "t.json", jsonio.tower_to_json(Tower([blocks, hinged])))
    code, out, err = invoke(
        "tower", "--mode", "relative", "--norm", "d=2,q=200", "--seed", "0", path
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "FlexibleCertified"


def test_tower_rejects_unnested_stages(invoke):
    raw = {
        "stages": [
            {"vertices": [0, 1], "edges": [[0, 1]]},
            {"vertices": [2, 3], "edges": [[2, 3]]},
        ]
    }
    code, _, err = invoke("tower", "--norm", "d=2,q=2", stdin=json.dumps(raw))
    assert code == 1
    assert err


# ---- bodybar --------------------------------------------------------------


def bodybar_text(n_bars):
    tri = lambda off: [[off + i, off + j] for i in range(3) for j in range(i + 1, 3)]  # noqa: E731
    bars = [[0, 3], [1, 4], [2, 5]][:n_bars]
    return json.dumps(
        {
            "graph": {
                "vertices": list(range(6)),
                "edges": tri(0) + tri(3) + bars,
            },
            "bodies": [[0, 1, 2], [3, 4, 5]],
            "interbody_edges": bars,
        }
    )


def test_bodybar_rigid_pair(invoke):
    code, out, _ = invoke("bodybar", "--norm", "d=2,q=2", stdin=bodybar_text(3))
    assert code == 0
    rep = json.loads(out)
    assert rep["rigid"] is True
    assert (rep["bodies"], rep["bars"]) == (2, 3)
    assert rep["crossChecked"] is True


def test_bodybar_flexible_pair(invoke):
    code, out, _ = invoke("bodybar", "--norm", "d=2,q=2", stdin=bodybar_text(2))
    assert code == 0
    assert json.loads(out)["rigid"] is False


def test_bodybar_rejects_bar_mismatch(invoke):
    obj = json.loads(bodybar_text(3))
    obj["interbody_edges"] = [[0, 3]]
    code, _, err = invoke("bodybar", "--norm", "d=2,q=2", stdin=json.dumps(obj))
    assert code == 1
    assert "inter-body" in err


def test_bodybar_names_a_body_by_its_listed_position(invoke):
    obj = json.loads(bodybar_text(3))
    obj["bodies"] = [[3, 4, 5], [0, 1, 2]]
    obj["graph"]["edges"].remove([0, 1])  # body [0, 1, 2] is a path
    code, out, err = invoke("bodybar", "--norm", "d=2,q=2", stdin=json.dumps(obj))
    assert (code, out) == (1, "")
    assert err.startswith("rigidkit: body 1 on vertices [0, 1, 2] is not generically rigid")
    obj = json.loads(bodybar_text(3))
    obj["bodies"] = [[3, 4, 5], [1, 2, 0], [0]]
    code, _, err = invoke("bodybar", "--norm", "d=2,q=2", stdin=json.dumps(obj))
    assert (code, err) == (1, "rigidkit: vertex 0 appears in bodies 1 and 2\n")


# ---- catalog --------------------------------------------------------------


def test_catalog_list(invoke):
    code, out, _ = invoke("catalog", "list")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"families"}
    assert "whirlpool" in rep["families"]
    assert rep["families"] == sorted(rep["families"])


def test_catalog_plain_graph_output(invoke):
    code, out, _ = invoke("catalog", "complete", "--params", "n=4")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"vertices", "edges"}
    assert len(rep["edges"]) == 6


def test_catalog_placement_toggle(invoke):
    code, out, _ = invoke("catalog", "whirlpool", "--params", "layers=1")
    assert code == 0
    assert len(json.loads(out)["placement"]) == 8
    code, out, _ = invoke(
        "catalog", "whirlpool", "--params", "layers=1", "--placement", "none"
    )
    assert code == 0
    assert "placement" not in json.loads(out)


def test_catalog_list_valued_param(invoke):
    code, out, _ = invoke(
        "catalog",
        "simplicial_holes",
        "--params",
        "holes=[4,5]",
        "refinement=2",
        "size=2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["meta"]["holeCycles"] == [4, 5]
    assert rep["meta"]["connectivity"] == 2


def test_catalog_output_feeds_analyze(invoke):
    _, out, _ = invoke("catalog", "double_banana")
    code, out, _ = invoke(
        "analyze", "--generic", "--norm", "d=3,q=2", stdin=out
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["flexDim"] == 1
    assert rep["rigid"] is False


def test_catalog_errors(invoke):
    assert invoke("catalog", "moebius")[0] == 1
    assert invoke("catalog", "complete", "--params", "n4")[0] == 1
    assert invoke("catalog", "complete", "--params", "n=4", "m=2")[0] == 1
    assert invoke("catalog", "list", "--params", "n=4")[0] == 1


@pytest.mark.parametrize(
    "family,params,message",
    [
        ("strip", ['cells="a"'], "cells must be an integer, got 'a'"),
        ("strip", ["cells=2.5"], "cells must be an integer, got 2.5"),
        ("whirlpool", ["layers=[1]"], "layers must be an integer"),
        ("complete", ["n=true"], "n must be an integer, got True"),
        ("simplicial_holes", ["holes=3"], "holes must be a list of integers"),
        ("simplicial_holes", ["holes=[4,true]"], "holes must be a list of integers"),
        ("simplicial_holes", ["holes=[4]", "size=true"], "size must be an integer"),
        ("strip", ["cells=2", 'spacing="a"'], "spacing must be a finite real number, got 'a'"),
        ("strip", ["cells=2", "spacing=true"], "spacing must be a finite real number, got True"),
        ("strip", ["cells=2", "spacing=NaN"], "spacing must be a finite real number, got nan"),
        ("strip", ["cells=2", "shear=[1]"], "shear must be a finite real number, got (1,)"),
        ("strip", ["cells=2", "shear=-Infinity"], "shear must be a finite real number, got -inf"),
        ("strip", ["cells=2", f"shear={10**400}"], "shear must be a finite real number, got 1000"),
        ("strip", ["cells=2", "mode=3"], "mode must be a string, got 3"),
    ],
)
def test_catalog_rejects_mistyped_params(invoke, family, params, message):
    code, out, err = invoke("catalog", family, "--params", *params)
    assert (code, out) == (1, "")
    assert err.startswith(f"rigidkit: family {family!r}: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", ["n=100000000000"]),
        ("diamond", ["levels=200"]),
        ("simplicial_holes", ["holes=[1000000000000]"]),
    ],
)
def test_catalog_refuses_oversized_families(invoke, monkeypatch, family, params):
    def never(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(catalog, "SimpleGraph", never)
    monkeypatch.setattr(catalog, "complete_graph", never)
    code, out, err = invoke("catalog", family, "--params", *params)
    assert (code, out) == (1, "")
    assert err == (
        f"rigidkit: {family} would have more than {catalog.MAX_FAMILY_EDGES} edges, "
        "the most the catalog builds\n"
    )


def test_catalog_refuses_whirlpool_layers_past_double_precision(invoke, monkeypatch):
    # Refused at layer 35, the first to round onto an earlier one, before
    # the graph or the deeper exact points (denominators 3^k) are built.
    def never(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(catalog, "SimpleGraph", never)
    with budget(1):
        code, out, err = invoke("catalog", "whirlpool", "--params", "layers=100000")
    assert (code, out) == (1, "")
    assert err == "rigidkit: whirlpool layer 35 rounds two vertices to one point\n"


# ---- render ---------------------------------------------------------------


def framework_text(norm=NormSpec(2, 3)):
    g, p = fig_k3()
    return json.dumps(jsonio.jsonable(jsonio.framework_to_json(g, p, norm)))


def test_render_verb(invoke):
    code, out, _ = invoke("render", stdin=framework_text())
    assert code == 0
    assert out.startswith("<svg ")
    assert "#c0392b" not in out


def test_render_verb_flex_arrows(invoke):
    code, out, _ = invoke("render", "--flex", "0", stdin=framework_text())
    assert code == 0
    assert "#c0392b" in out


def test_render_flex_index_range(invoke):
    code, _, err = invoke("render", "--flex", "4", stdin=framework_text())
    assert code == 1
    assert "out of range" in err


def test_render_rejects_3d(invoke, tmp_path):
    g = complete_graph(3)
    p = Placement(3, {v: (float(v), 0.0, 1.0) for v in g.vertices})
    path = write_json(
        tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(3, 2))
    )
    code, _, err = invoke("render", path)
    assert code == 1
    assert "plane" in err


def test_render_flex_refuses_3d_before_ranking(invoke, tmp_path, monkeypatch):
    # A rigid tetrahedron: ranked first, it would fail on the flex index.
    from rigidkit import frameworks

    def unread(*args):
        raise AssertionError("flex_report ran")

    monkeypatch.setattr(frameworks, "flex_report", unread)
    g = complete_graph(4)
    p = Placement(3, {v: tuple(float(v == i + 1) for i in range(3)) for v in g.vertices})
    path = write_json(tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(3, 2)))
    code, out, err = invoke("render", "--flex", "0", path)
    assert (code, out, err) == (1, "", "rigidkit: render supports plane frameworks only, got d=3\n")


def test_render_needs_a_placement(invoke):
    graph = json.dumps(jsonio.jsonable(jsonio.graph_to_json(complete_graph(3))))
    code, out, err = invoke("render", stdin=graph)
    assert (code, out, err) == (1, "", "rigidkit: render needs a placement\n")


def test_render_output_file(invoke, tmp_path):
    out_path = tmp_path / "pic.svg"
    code, out, _ = invoke("render", "-o", str(out_path), stdin=framework_text())
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("<svg ")


# ---- settings: each flag only where some mode reads it ----------------------


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """One input file per verb, in a working directory of their own."""
    g, p = fig_k3()
    write_json(tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(2, 3)))
    two_tree = SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    write_json(tmp_path / "g.json", jsonio.graph_to_json(two_tree))
    write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(2)))
    (tmp_path / "t.json").write_text(tower_text(3, 4, 5))
    (tmp_path / "b.json").write_text(bodybar_text(3))
    monkeypatch.chdir(tmp_path)


def _registered_flags():
    from rigidkit.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "verb")
    return {
        verb: sorted(
            a.option_strings[-1] for a in p._actions if a.option_strings and a.dest != "help"
        )
        for verb, p in sub.choices.items()
    }


def test_each_verb_registers_only_the_flags_it_reads():
    flags = _registered_flags()
    assert sum(map(len, flags.values())) == 27
    assert [v for v, f in flags.items() if "--seed" in f] == ["analyze", "tower", "bodybar"]
    assert [v for v, f in flags.items() if "--tol" in f] == ["analyze", "render"]


CHAIN = ["chain", "--mode", "euclidean", "--from", "a.json", "--to", "g.json"]


UNREAD_BY_RADIAL = "strip's radial placement takes no spacing or shear"


@pytest.mark.parametrize(
    "argv, message",
    [
        # flags no mode of the verb reads; argparse takes a flag's value that
        # comes before the input for the input, and names the file instead
        (
            ["sparsity", "--count", "2,3", "--seed", "1", "g.json"],
            "unrecognized arguments: --seed g.json",
        ),
        (
            ["sparsity", "--count", "2,3", "--tol", "1e-6", "g.json"],
            "unrecognized arguments: --tol g.json",
        ),
        ([*CHAIN, "--seed", "1"], "unrecognized arguments: --seed 1"),
        ([*CHAIN, "--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
        (
            ["tower", "--norm", "d=2,q=2", "--tol", "1e-6", "t.json"],
            "unrecognized arguments: --tol t.json",
        ),
        (
            ["bodybar", "--norm", "d=2,q=2", "--tol", "1e-6", "b.json"],
            "unrecognized arguments: --tol b.json",
        ),
        (["render", "--seed", "1", "f.json"], "unrecognized arguments: --seed f.json"),
        # flags the chosen mode never reads
        (["analyze", "--generic", "--tol", "0.5", "f.json"], "--tol not read with --generic"),
        (["analyze", "--seed", "1", "f.json"], "--seed not read without --generic"),
        (["analyze", "--trials", "3", "f.json"], "--trials not read without --generic"),
        (
            ["tower", "--mode", "laman", "--norm", "d=2,q=2", "--seed", "1", "t.json"],
            "--seed not read in laman mode",
        ),
        (["render", "--norm", "d=2,q=3", "f.json"], "--norm not read without --flex"),
        (["render", "--tol", "1e-6", "f.json"], "--tol not read without --flex"),
        (["catalog", "strip", "--params", "cells=2", "spacing=2"], UNREAD_BY_RADIAL),
        (["catalog", "strip", "--params", "cells=2", "mode=radial", "shear=0.5"], UNREAD_BY_RADIAL),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_a_setting_no_mode_reads_is_refused(invoke, inputs, argv, message):
    code, out, err = invoke(*argv)
    assert (code, out, err) == (1, "", f"rigidkit: {message}\n")


@pytest.mark.parametrize(
    "argv, seed, trials, tolerance",
    [
        (["analyze", "f.json"], None, None, RANK_EPS),
        (["analyze", "--tol", "1e-6", "f.json"], None, None, 1e-6),
        (["analyze", "--generic", "f.json"], 0, 5, None),
        (["analyze", "--generic", "--seed", "4", "--trials", "2", "f.json"], 4, 2, None),
        (["sparsity", "--count", "2,3", "g.json"], None, None, None),
        (CHAIN, None, None, None),
        (["tower", "--norm", "d=2,q=2", "--seed", "4", "t.json"], 4, None, None),
        (["tower", "--mode", "sequential", "--norm", "d=2,q=2", "t.json"], 0, None, None),
        (["tower", "--mode", "laman", "--norm", "d=2,q=2", "t.json"], None, None, None),
        (["bodybar", "--norm", "d=2,q=2", "--seed", "4", "b.json"], 4, None, None),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_a_report_echoes_the_settings_its_mode_takes(
    invoke, inputs, argv, seed, trials, tolerance
):
    code, out, _ = invoke(*argv)
    assert code == 0
    rep = json.loads(out)
    taken = (rep["seed"], rep["trials"], rep["tolerance"])
    assert taken == (seed, trials, None if tolerance is None else jsonio.format_number(tolerance))


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--generic", "--norm", "d=2,q=2", "--seed", "-1", "g.json"],
        ["tower", "--mode", "relative", "--norm", "d=2,q=2", "--seed", "-1", "t.json"],
    ],
    ids=["analyze", "tower"],
)
def test_negative_seed_is_a_usage_error(invoke, inputs, argv):
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "")
    assert err == "rigidkit: argument --seed: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_unusable_tolerance_is_refused(invoke, inputs, tol):
    code, out, err = invoke("analyze", "--tol", tol, "f.json")
    assert (code, out) == (1, "")
    assert err.startswith("rigidkit: rank tolerance must be finite and non-negative")


@pytest.mark.parametrize(
    "coord, verbs",
    [(float("nan"), ["render", "analyze"]), (10**333, ["sparsity", "render"])],
    ids=["nan", "334-digits"],
)
def test_non_finite_coordinate_is_one_error_line(invoke, coord, verbs):
    doc = json.loads(framework_text())
    doc["placement"]["2"] = [coord, 1]
    for verb in verbs:
        argv = [verb, "--count", "2,3"] if verb == "sparsity" else [verb]
        code, out, err = invoke(*argv, stdin=json.dumps(doc))
        assert (code, out) == (1, "")
        assert err == "rigidkit: vertex 2 has a coordinate that is not a finite float\n"


# ---- dispatch and exit codes ----------------------------------------------


def test_malformed_json_reports_position(invoke):
    code, _, err = invoke("analyze", "--norm", "d=2,q=2", stdin="{oops")
    assert code == 1
    assert "malformed JSON" in err
    assert "line 1" in err


def test_missing_file_is_usage_error(invoke):
    code, _, err = invoke("analyze", "/no/such/file.json")
    assert code == 1
    assert err


def test_unknown_verb(invoke):
    assert invoke("solve")[0] == 1


def test_internal_errors_exit_2(invoke, monkeypatch):
    from rigidkit import towers

    def boom(*a, **k):
        raise InconsistencyError("routes disagree")

    monkeypatch.setattr(towers, "tower_rigidity", boom)
    code, _, err = invoke("tower", "--norm", "d=2,q=2", stdin=tower_text(3, 4))
    assert code == 2
    assert "internal inconsistency" in err


def test_version_flag(invoke, capsys):
    with pytest.raises(SystemExit):
        run(["--version"])
    assert rigidkit.__version__ in capsys.readouterr().out


# ---- start-up -------------------------------------------------------------


_FENCE = """
import json, sys
from rigidkit.cli import run
try:
    code = run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules]), file=sys.stderr)
"""


def _fresh_python(code, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(rigidkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["sparsity", "--count", "2,3", "g.json"],
        ["chain", "--mode", "euclidean", "--from", "a.json", "--to", "g.json"],
        ["tower", "--mode", "laman", "--norm", "d=2,q=2", "t.json"],
        ["tower", "--mode", "sequential", "--norm", "d=2,q=2", "t.json"],
        ["--version"],
        # Catalog output carries a placement that the verb never uses.
        ["sparsity", "--count", "2,3", "strip.json"],
        ["catalog", "list"],
        ["catalog", "banana_tower", "--params", "stages=3", "--placement", "none"],
    ],
    ids=[
        "sparsity",
        "chain",
        "laman",
        "sequential",
        "version",
        "placed-input",
        "catalog-list",
        "catalog-graph",
    ],
)
def test_pebble_verbs_start_without_numpy(argv, tmp_path):
    two_tree = SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    write_json(tmp_path / "g.json", jsonio.graph_to_json(two_tree))
    write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(2)))
    write_json(tmp_path / "strip.json", jsonio.family_to_json(catalog.strip(cells=8)))
    (tmp_path / "t.json").write_text(tower_text(3, 4, 5))
    assert _fresh_python(_FENCE, *argv, cwd=tmp_path) == [0, False]


_MOVES_FENCE = _FENCE.replace('"numpy"', '"rigidkit.moves"')


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "f.json"],
        ["analyze", "--generic", "f.json"],
        ["sparsity", "--count", "2,3", "g.json"],
        ["chain", "--mode", "euclidean", "--from", "a.json", "--to", "g.json"],
        ["tower", "--mode", "laman", "--norm", "d=2,q=2", "t.json"],
        ["tower", "--mode", "sequential", "--norm", "d=2,q=2", "t.json"],
        ["tower", "--mode", "relative", "--norm", "d=2,q=2", "t.json"],
        ["bodybar", "--norm", "d=2,q=2", "b.json"],
        ["catalog", "strip", "--params", "cells=3"],
        ["render", "f.json"],
    ],
    ids=[
        "analyze",
        "analyze-generic",
        "sparsity",
        "chain",
        "laman",
        "sequential",
        "relative",
        "bodybar",
        "catalog",
        "render",
    ],
)
def test_only_the_chain_verb_loads_moves(argv, tmp_path):
    two_tree = SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    g, p = fig_k3()
    write_json(tmp_path / "f.json", jsonio.framework_to_json(g, p, NormSpec(2, 3)))
    write_json(tmp_path / "g.json", jsonio.graph_to_json(two_tree))
    write_json(tmp_path / "a.json", jsonio.graph_to_json(complete_graph(2)))
    (tmp_path / "t.json").write_text(tower_text(3, 4, 5))
    (tmp_path / "b.json").write_text(bodybar_text(3))
    code, moves_loaded = _fresh_python(_MOVES_FENCE, *argv, cwd=tmp_path)
    assert code == 0
    assert moves_loaded == (argv[0] == "chain")


def test_pebble_modules_import_without_numpy(tmp_path):
    code = (
        "import json, sys\n"
        "import rigidkit.graphs, rigidkit.sparsity, rigidkit.moves, "
        "rigidkit.jsonio, rigidkit.towers, rigidkit.placements\n"
        "print(json.dumps('numpy' in sys.modules), file=sys.stderr)\n"
    )
    assert _fresh_python(code, cwd=tmp_path) is False
