import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import solve_exact

from rigidkit.catalog import (
    GeneratedFamily,
    SimplicialMeta,
    add_shafts,
    available_families,
    banana_tower,
    complete,
    cycle,
    diamond,
    double_banana,
    generate,
    octa_pointed,
    simplicial_flex_dim,
    simplicial_holes,
    strip,
    tetra_refined,
    whirlpool,
    whirlpool_blocks,
    whirlpool_exact_points,
)
from rigidkit.errors import InputError
from rigidkit.frameworks import (
    NormSpec,
    flex_growth_profile,
    flex_report,
    is_rigid_generic,
    random_placement,
    rigidity_matrix,
)
from rigidkit.graphs import SimpleGraph, complete_graph
from rigidkit.sparsity import SparsityCount, is_sparse

EUCLID2 = NormSpec(2, 2)
EUCLID3 = NormSpec(3, 2)
CUBIC3 = NormSpec(3, 3)


def edge_set(g):
    return set(g.edges)


# ---- small families -------------------------------------------------------


def test_complete_and_cycle_delegate():
    assert complete(5).n_edges == 10
    assert cycle(6).n_edges == 6
    assert edge_set(complete(3)) == edge_set(cycle(3))


@pytest.mark.parametrize("bad", [0, -2])
def test_complete_rejects_nonpositive(bad):
    with pytest.raises(InputError):
        complete(bad)


def test_cycle_rejects_short():
    with pytest.raises(InputError):
        cycle(2)


# ---- bananas --------------------------------------------------------------


def k5_less_pair(group, missing):
    s = sorted(group)
    return {
        (a, b)
        for i, a in enumerate(s)
        for b in s[i + 1 :]
        if (a, b) != tuple(sorted(missing))
    }


def test_double_banana_counts():
    g = double_banana()
    assert g.n_vertices == 8
    assert g.n_edges == 18
    assert g.n_edges == 3 * g.n_vertices - 6
    assert not g.has_edge(6, 7)
    degs = sorted(g.degree(v) for v in g.vertices)
    assert degs == [4] * 6 + [6, 6]


def test_double_banana_is_two_blocks():
    expect = k5_less_pair((0, 1, 2, 6, 7), (6, 7)) | k5_less_pair(
        (3, 4, 5, 6, 7), (6, 7)
    )
    assert edge_set(double_banana()) == expect


def test_double_banana_flexes_in_space():
    g = double_banana()
    rep = flex_report(g, random_placement(g, EUCLID3, seed=3), EUCLID3)
    assert rep.rank == 17
    assert rep.flex_dim == 1


def test_banana_tower_stage_two_block():
    added = edge_set(banana_tower(2)) - edge_set(banana_tower(1))
    assert added == k5_less_pair((2, 5, 8, 9, 10), (2, 5))
    assert banana_tower(2).n_vertices == 11


def test_banana_tower_stage_three_block():
    added = edge_set(banana_tower(3)) - edge_set(banana_tower(2))
    assert added == k5_less_pair((7, 10, 11, 12, 13), (7, 10))


def test_banana_tower_stage_four_block():
    added = edge_set(banana_tower(4)) - edge_set(banana_tower(3))
    assert added == k5_less_pair((6, 13, 14, 15, 16), (6, 13))


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_banana_tower_always_one_flex(stages):
    g = banana_tower(stages)
    assert g.n_vertices == 3 * stages + 5
    assert g.n_edges == 9 * stages + 9
    rep = flex_report(g, random_placement(g, EUCLID3, seed=stages), EUCLID3)
    assert rep.flex_dim == 1
    assert rep.rank == 3 * g.n_vertices - 7


def test_banana_tower_rejects_zero_stages():
    with pytest.raises(InputError):
        banana_tower(0)


# ---- strips ---------------------------------------------------------------


def test_strip_counts_and_shape():
    fam = strip(4)
    g = fam.graph
    assert g.n_vertices == 12
    assert g.n_edges == 7 * 4 - 4
    assert g.has_edge(1, 5)  # lower-ladder diagonal
    assert not g.has_edge(0, 4)


def test_strip_radial_rows_sit_on_three_lines():
    p = strip(3).placement
    for k in range(3):
        x = 2.0 ** -(k + 1)
        assert p[3 * k] == (x, x)
        assert p[3 * k + 1] == (x, 0.0)
        assert p[3 * k + 2] == (x, -x)


@pytest.mark.parametrize("norm", [EUCLID2, NormSpec(2, 3)])
def test_strip_top_row_drift_is_a_flex(norm):
    fam = strip(4)
    g = fam.graph
    rm = rigidity_matrix(g, fam.placement, norm)
    u = np.zeros(2 * g.n_vertices)
    for k in range(4):
        u[2 * g.index_of[3 * k]] = 1.0
    assert np.allclose(rm @ u, 0.0, atol=1e-14)


def test_strip_generically_rigid_but_radially_flexible():
    fam = strip(3)
    assert is_rigid_generic(fam.graph, EUCLID2, trials=3, seed=2).rigid
    rep = flex_report(fam.graph, fam.placement, EUCLID2)
    assert rep.flex_dim >= 1


def test_strip_drift_speed_stays_bounded():
    fams = [strip(c) for c in range(1, 5)]
    base = {0: (1.0, 0.0), 1: (0.0, 0.0), 2: (0.0, 0.0)}
    profile = flex_growth_profile(
        [f.graph for f in fams], [f.placement for f in fams], EUCLID2, base
    )
    assert profile.trend == "constant"
    assert profile.speeds == pytest.approx((1.0,) * 4, abs=1e-9)


def test_strip_periodic_columns_collinear():
    p = strip(3, mode="periodic", spacing=2.0, shear=0.5).placement
    for k in range(3):
        t, m, c = (np.array(p[3 * k + i]) for i in range(3))
        u, w = t - m, m - c
        assert np.isclose(u[0] * w[1] - u[1] * w[0], 0.0)
    assert p[5][0] - p[2][0] == pytest.approx(2.0)


def test_strip_rejects_bad_input():
    with pytest.raises(InputError):
        strip(0)
    with pytest.raises(InputError, match="mode"):
        strip(2, mode="diagonal")
    with pytest.raises(InputError, match="vertex 6 has a coordinate that is not a finite float"):
        strip(3, mode="periodic", spacing=1e308)


def test_strip_spacing_and_shear_are_periodic_only():
    for kwargs in ({"spacing": 2.0}, {"shear": 0.5}, {"spacing": 1.0, "shear": 0.3}):
        with pytest.raises(InputError, match="radial placement takes no spacing or shear"):
            strip(3, **kwargs)
    default = strip(3, mode="periodic").placement
    assert default == strip(3, mode="periodic", spacing=1.0, shear=0.3).placement


# ---- whirlpools -----------------------------------------------------------

RING_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]
SPOKE_EDGES = [(0, 4), (1, 5), (2, 6), (3, 7)]

R1_REF = np.array(
    [
        [6, 0, -6, 0, 0, 0, 0, 0],
        [0, 0, 0, 6, 0, -6, 0, 0],
        [0, 0, 0, 0, -6, 0, 6, 0],
        [0, 6, 0, 0, 0, 0, 0, -6],
    ]
)
R2_REF = np.array(
    [
        [3, 1, -3, -1, 0, 0, 0, 0],
        [0, 0, -1, 3, 1, -3, 0, 0],
        [0, 0, 0, 0, -3, -1, 3, 1],
        [-1, 3, 0, 0, 0, 0, 1, -3],
    ]
)
X_REF = np.array(
    [
        [2, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, -2, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, -2],
    ]
)
OUTER_FLEX = (1, 1, 1, -1, -1, -1, -1, 1)
INNER_FLEX = (
    Fraction(3, 4),
    Fraction(3, 2),
    Fraction(3, 2),
    Fraction(-3, 4),
    Fraction(-3, 4),
    Fraction(-3, 2),
    Fraction(-3, 2),
    Fraction(3, 4),
)


def test_whirlpool_counts_and_edge_order():
    fam = whirlpool(2)
    g = fam.graph
    assert g.n_vertices == 12
    assert g.n_edges == 20
    inner = [(4, 5), (5, 6), (6, 7), (4, 7)]
    assert list(g.edges[:12]) == RING_EDGES + inner + SPOKE_EDGES


def test_whirlpool_places_34_layers_on_distinct_points():
    fam = whirlpool(34)
    coords = [fam.placement[v] for v in fam.graph.vertices]
    assert len(set(coords)) == fam.graph.n_vertices == 140


def test_whirlpool_refuses_layers_that_round_together():
    # Square 35 lies within rounding of square 34 on the line x = y.
    with pytest.raises(InputError, match="whirlpool layer 35 rounds two vertices"):
        whirlpool(35)


def test_whirlpool_outer_squares_fixed():
    pts = whirlpool_exact_points(1)
    assert pts[0] == (3, 3)
    assert pts[2] == (-3, -3)
    assert pts[4] == (1, 2)
    assert pts[7] == (2, -1)


def test_whirlpool_recurrence_values():
    pts = whirlpool_exact_points(3)
    assert pts[8] == (Fraction(5, 3), Fraction(4, 3))
    assert pts[9] == (0, -1)

    def step(pt):
        x, y = pt
        return (Fraction(x + 2 * y, 3), Fraction(2 * x + y, 3))

    for k in range(2, 4):
        for i in range(4):
            assert pts[4 * k + i] == step(pts[4 * (k - 1) + i])


def test_whirlpool_placement_matches_exact_points():
    fam = whirlpool(2)
    pts = whirlpool_exact_points(2)
    for v in fam.graph.vertices:
        assert fam.placement[v] == pytest.approx(
            tuple(float(c) for c in pts[v]), abs=1e-15
        )


def test_whirlpool_blocks_are_bit_exact():
    r1, r2, x = whirlpool_blocks()
    assert np.array_equal(r1, R1_REF)
    assert np.array_equal(r2, R2_REF)
    assert np.array_equal(x, X_REF)
    assert r1.dtype == np.int64


def test_whirlpool_inner_flex_solves_exactly():
    r1, r2, x = whirlpool_blocks()
    a = OUTER_FLEX
    assert all(sum(r * v for r, v in zip(row, a)) == 0 for row in r1)
    rhs = [sum(r * v for r, v in zip(row, a)) for row in x]
    b = solve_exact(list(r2) + list(x), [0, 0, 0, 0] + rhs)
    assert b == list(INNER_FLEX)


def test_whirlpool_assembled_kernel_vector():
    r1, r2, x = whirlpool_blocks()
    top = np.hstack([r1, np.zeros((4, 8))])
    mid = np.hstack([np.zeros((4, 8)), r2])
    bot = np.hstack([x, -x])
    full = np.vstack([top, mid, bot])
    vec = np.array([float(v) for v in OUTER_FLEX + INNER_FLEX])
    assert full.shape == (12, 16)
    assert np.allclose(full @ vec, 0.0, atol=1e-12)


BASE_SQUARE_FLEX = {
    0: (1.0, 1.0),
    1: (1.0, -1.0),
    2: (-1.0, -1.0),
    3: (-1.0, 1.0),
}


def test_whirlpool_first_layer_speed_ratio():
    fams = [whirlpool(0), whirlpool(1)]
    profile = flex_growth_profile(
        [f.graph for f in fams], [f.placement for f in fams], EUCLID2,
        BASE_SQUARE_FLEX,
    )
    assert profile.trend == "increasing"
    assert profile.speeds[0] == pytest.approx(1.0, abs=1e-14)
    assert profile.speeds[1] == pytest.approx(math.sqrt(45.0 / 32.0), rel=1e-12)


def test_whirlpool_exact_speed_ratio_squared():
    # per-vertex speed is uniform on each of the first two squares, so the
    # squared ratio is exact in rational arithmetic
    a = OUTER_FLEX
    b = INNER_FLEX
    a_sq = {a[2 * i] ** 2 + a[2 * i + 1] ** 2 for i in range(4)}
    b_sq = {b[2 * i] ** 2 + b[2 * i + 1] ** 2 for i in range(4)}
    assert a_sq == {2}
    assert b_sq == {Fraction(45, 16)}
    assert Fraction(45, 16) / 2 == Fraction(45, 32)


def test_whirlpool_deeper_spokes_are_parallel():
    # beyond the first band every spoke points along the contraction
    # eigendirection, so tail translations along (1, 1) are extra flexes and
    # the least-squares extension cannot keep growing
    pts = whirlpool_exact_points(3)
    for k in range(2, 4):
        for i in range(4):
            dx, dy = (
                pts[4 * k + i][0] - pts[4 * (k - 1) + i][0],
                pts[4 * k + i][1] - pts[4 * (k - 1) + i][1],
            )
            assert dx + dy == 0
    fams = [whirlpool(k) for k in range(4)]
    profile = flex_growth_profile(
        [f.graph for f in fams], [f.placement for f in fams], EUCLID2,
        BASE_SQUARE_FLEX,
    )
    ratio = math.sqrt(45.0 / 32.0)
    assert profile.speeds[1] == pytest.approx(ratio, rel=1e-12)
    assert all(s <= ratio + 1e-9 for s in profile.speeds)


def test_whirlpool_rejects_bad_input():
    with pytest.raises(InputError):
        whirlpool(-1)
    with pytest.raises(InputError):
        whirlpool_blocks(0)


# ---- pointed polytopes ----------------------------------------------------


@pytest.mark.parametrize("levels", [0, 1, 2])
def test_tetra_refined_closed_surface(levels):
    g = tetra_refined(levels).graph
    assert g.n_vertices == 3 * levels + 4
    assert g.n_edges == 9 * levels + 6
    assert g.n_edges == 3 * g.n_vertices - 6


def test_tetra_refined_latitude_heights():
    fam = tetra_refined(2)
    apex = 3 * 2 + 3
    assert fam.placement[apex] == (0.0, 0.0, 1.0)
    for k in range(3):
        for i in range(3):
            assert fam.placement[3 * k + i][2] == pytest.approx(1.0 - 2.0**-k)
    assert fam.meta == SimplicialMeta(0, (), 1)


@pytest.mark.parametrize("levels", [0, 1, 2])
def test_tetra_refined_rigid_in_euclid_space(levels):
    g = tetra_refined(levels).graph
    assert is_rigid_generic(g, EUCLID3, trials=3, seed=levels).rigid


def test_tetra_refined_gains_three_flexes_off_euclid():
    g = tetra_refined(1).graph
    rep = flex_report(g, random_placement(g, CUBIC3, seed=4), CUBIC3)
    assert rep.flex_dim == 3


@pytest.mark.parametrize("levels", [0, 1])
def test_octa_pointed_closed_surface(levels):
    fam = octa_pointed(levels)
    g = fam.graph
    assert g.n_vertices == 4 * levels + 6
    assert g.n_edges == 12 * levels + 12
    assert g.n_edges == 3 * g.n_vertices - 6
    assert is_rigid_generic(g, EUCLID3, trials=3, seed=levels + 7).rigid


def test_octa_pointed_poles_and_latitudes():
    fam = octa_pointed(1)
    assert fam.placement[0] == (0.0, 0.0, -1.0)
    assert fam.placement[9] == (0.0, 0.0, 1.0)
    for i in range(4):
        assert fam.placement[1 + i][2] == 0.0
        assert fam.placement[5 + i][2] == pytest.approx(0.5)


def test_octa_pointed_level_zero_is_octahedron():
    g = octa_pointed(0).graph
    assert sorted(g.degree(v) for v in g.vertices) == [4] * 6


@pytest.mark.parametrize("family", [tetra_refined, octa_pointed])
def test_pointed_families_reject_negative(family):
    with pytest.raises(InputError):
        family(-1)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_diamond_counts(levels):
    fam = diamond(levels)
    g = fam.graph
    assert g.n_vertices == 1 + 4 * (2**levels - 1)
    assert g.n_edges == 10 * 2**levels - 12
    assert fam.meta.connectivity == 1
    assert fam.meta.hole_cycles == (2 ** (levels + 1),)


def test_diamond_sits_on_unit_sphere():
    fam = diamond(3)
    for v in fam.graph.vertices:
        assert np.linalg.norm(fam.placement[v]) == pytest.approx(1.0)
    assert fam.placement[0] == (0.0, 0.0, -1.0)


@pytest.mark.parametrize(
    "levels,norm,expect",
    [(1, EUCLID3, 1), (2, EUCLID3, 5), (2, CUBIC3, 8)],
)
def test_diamond_flex_count_is_hole_driven(levels, norm, expect):
    fam = diamond(levels)
    assert simplicial_flex_dim(fam.meta, norm) == expect
    rep = flex_report(
        fam.graph, random_placement(fam.graph, norm, seed=levels), norm
    )
    assert rep.flex_dim == expect


def test_diamond_rejects_zero_levels():
    with pytest.raises(InputError):
        diamond(0)


# ---- drums with holes -----------------------------------------------------


def test_drum_size_one_is_octahedron():
    fam = simplicial_holes(SimplicialMeta(0, (), 1), 1)
    g = fam.graph
    assert g.n_vertices == 6
    assert g.n_edges == 12
    assert sorted(g.degree(v) for v in g.vertices) == [4] * 6


def test_closed_drum_is_rigid_sphere():
    g = simplicial_holes(SimplicialMeta(0, (), 1), 2).graph
    assert g.n_vertices == 10
    assert g.n_edges == 24
    assert is_rigid_generic(g, EUCLID3, trials=3, seed=9).rigid


@pytest.mark.parametrize(
    "meta,size,n_vertices,n_edges",
    [
        (SimplicialMeta(1, (4,), 1), 2, 9, 20),
        (SimplicialMeta(1, (5,), 1), 2, 11, 25),
        (SimplicialMeta(2, (4, 5), 2), 2, 9, 18),
        (SimplicialMeta(2, (6, 6), 2), 3, 18, 42),
    ],
)
def test_drum_edge_deficiency_tracks_holes(meta, size, n_vertices, n_edges):
    g = simplicial_holes(meta, size).graph
    assert g.n_vertices == n_vertices
    assert g.n_edges == n_edges
    deficiency = sum(meta.hole_cycles) - 3 * meta.connectivity
    assert g.n_edges == 3 * g.n_vertices - 6 - deficiency


@pytest.mark.parametrize(
    "meta,size,norm",
    [
        (SimplicialMeta(1, (4,), 1), 2, EUCLID3),
        (SimplicialMeta(1, (5,), 1), 2, EUCLID3),
        (SimplicialMeta(2, (4, 4), 2), 2, EUCLID3),
        (SimplicialMeta(1, (4,), 1), 2, CUBIC3),
    ],
)
def test_drum_flexes_match_formula(meta, size, norm):
    g = simplicial_holes(meta, size).graph
    rep = flex_report(g, random_placement(g, norm, seed=13), norm)
    assert rep.flex_dim == simplicial_flex_dim(meta, norm)


def test_drum_rejects_unsupported_shapes():
    with pytest.raises(InputError):
        simplicial_holes(SimplicialMeta(0, (), 1), 0)
    with pytest.raises(InputError, match="two holes"):
        simplicial_holes(SimplicialMeta(2, (4, 4), 2), 1)
    with pytest.raises(InputError, match="at most two"):
        simplicial_holes(SimplicialMeta(3, (4, 4, 4), 3), 3)


def test_meta_validation():
    with pytest.raises(InputError):
        SimplicialMeta(-1, (), 1)
    with pytest.raises(InputError):
        SimplicialMeta(1, (), 1)
    with pytest.raises(InputError):
        SimplicialMeta(1, (3,), 1)
    with pytest.raises(InputError):
        SimplicialMeta(0, (), 0)
    with pytest.raises(InputError):
        SimplicialMeta(2, (4, 4), 1)


def test_flex_formula_examples():
    assert simplicial_flex_dim(SimplicialMeta(0, (), 1), EUCLID3) == 0
    assert simplicial_flex_dim(SimplicialMeta(1, (4,), 1), EUCLID3) == 1
    assert simplicial_flex_dim(SimplicialMeta(0, (), 1), CUBIC3) == 3
    with pytest.raises(InputError):
        simplicial_flex_dim(SimplicialMeta(0, (), 1), EUCLID2)


# ---- shafts ---------------------------------------------------------------


def icosahedron():
    edges = []
    for i in range(5):
        edges += [(0, 1 + i), (11, 6 + i)]
        edges += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5)]
        edges += [(1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return SimpleGraph(range(12), edges)


def test_octahedron_with_shafts_is_k6():
    octa = simplicial_holes(SimplicialMeta(0, (), 1), 1).graph
    braced = add_shafts(octa)
    assert edge_set(braced) == edge_set(complete_graph(6))
    report = is_sparse(braced, SparsityCount(3, 3))
    assert report.sparse
    assert braced.n_edges == 3 * braced.n_vertices - 3


def test_icosahedron_with_shafts_is_isostatic_off_euclid():
    g = icosahedron()
    assert g.n_edges == 30
    braced = add_shafts(g)
    assert braced.n_edges == 33
    rep = flex_report(braced, random_placement(braced, CUBIC3, seed=21), CUBIC3)
    assert rep.rank == 33
    assert rep.flex_dim == 0


def test_shafts_are_pairwise_disjoint_non_edges():
    g = icosahedron()
    braced = add_shafts(g, count=3)
    new = sorted(edge_set(braced) - edge_set(g))
    assert len(new) == 3
    touched = [v for e in new for v in e]
    assert len(set(touched)) == 6
    assert all(not g.has_edge(*e) for e in new)


def test_shafts_reject_bad_hosts():
    with pytest.raises(InputError, match="at least 6"):
        add_shafts(complete(5))
    with pytest.raises(InputError, match="edge count"):
        add_shafts(cycle(6))
    nearly = SimpleGraph(
        range(6),
        [
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if (a, b) not in {(0, 1), (0, 2), (1, 2)}
        ],
    )
    with pytest.raises(InputError, match="non-incident"):
        add_shafts(nearly)
    assert add_shafts(nearly, count=1).n_edges == 13


# ---- dispatch -------------------------------------------------------------


def test_generate_families():
    fam = generate("complete", n=4)
    assert isinstance(fam, GeneratedFamily)
    assert fam.placement is None
    assert edge_set(fam.graph) == edge_set(complete_graph(4))
    assert generate("double_banana").graph.n_edges == 18
    assert generate("whirlpool", layers=1).placement is not None
    assert generate("strip", cells=2, mode="periodic").graph.n_vertices == 6


def test_generate_simplicial_holes_flat_params():
    fam = generate("simplicial_holes", holes=(4,), size=2)
    assert fam.meta.connectivity == 1
    closed = generate("simplicial_holes", holes=())
    assert closed.graph.n_edges == 12


def test_generate_rejects_unknown_and_extra():
    with pytest.raises(InputError, match="unknown family"):
        generate("moebius")
    with pytest.raises(InputError, match="does not take bend, twist$"):
        generate("cycle", n=4, twist=1, bend=2)
    with pytest.raises(InputError, match="needs"):
        generate("banana_tower")


def test_available_families_sorted():
    fams = available_families()
    assert fams == tuple(sorted(fams))
    assert "whirlpool" in fams
    assert "simplicial_holes" in fams
    assert len(fams) == 10
