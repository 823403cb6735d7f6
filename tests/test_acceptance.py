"""Release gate: one test per shipped guarantee, each with a runtime budget.

Every test here drives the public API end to end and checks exact frozen
values where the construction admits them.  Budgets are generous; blowing
one usually means an algorithmic regression, not a slow machine.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    assert_witness_flex,
    complete_bodies,
    grow_tight_graph,
    random_graph,
    random_multibody,
    random_tight_multigraph,
    realize_bodybar,
    shuffled_copy,
    solve_exact,
    zero_extension_graph,
)
from rigidkit import frameworks
from rigidkit.bodybar import special_placement, tay_decide, validate_multibody
from rigidkit.catalog import (
    SimplicialMeta,
    add_shafts,
    banana_tower,
    simplicial_flex_dim,
    simplicial_holes,
    whirlpool,
    whirlpool_blocks,
)
from rigidkit.frameworks import (
    NormSpec,
    Placement,
    continuation_track,
    flex_growth_profile,
    flex_report,
    is_rigid_generic,
    rank_mod_p,
    rigidity_matrix,
)
from rigidkit.graphs import SimpleGraph, Tower, complete_graph, induced_subgraph
from rigidkit.moves import EUCLIDEAN_MODE, QNORM_MODE, find_chain, verify_chain
from rigidkit.sparsity import (
    LAMAN,
    QNORM_2D,
    PebbleGame,
    SparsityCount,
    augment_to_tight,
    brute_force_sparse,
    is_sparse,
    tight_spanning_subgraph,
)
from rigidkit.towers import (
    TOWER_RIGID,
    exhaustive_rigid_container,
    relative_rigidity,
    rigid_container_2d,
    sequential_rigidity_2d,
    tower_rigidity,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.1f}s >= {seconds}s"


def lq_lengths(g, p, q):
    return [
        sum(abs(p[a][i] - p[b][i]) ** q for i in range(p.dim)) ** (1.0 / q)
        for a, b in g.edges
    ]


SQRT3 = 3**0.5


def test_01_cubic_norm_triangle_matrix():
    # Triangle at a placement whose coordinate differences have integer
    # signed squares, so the whole matrix is exact up to float rounding.
    with budget(1):
        g = complete_graph(3)
        p = Placement(2, {0: (0.0, 0.0), 1: (-SQRT3, 1.0), 2: (SQRT3, 1.0)})
        norm = NormSpec(2, 3)
        mat = rigidity_matrix(g, p, norm)
        expected = np.array(
            [
                [3.0, -1.0, -3.0, 1.0, 0.0, 0.0],
                [-3.0, -1.0, 0.0, 0.0, 3.0, 1.0],
                [0.0, 0.0, -12.0, 0.0, 12.0, 0.0],
            ]
        )
        assert mat.shape == (3, 6)
        assert np.max(np.abs(mat - expected)) <= 1e-12

        rep = flex_report(g, p, norm)
        assert rep.flex_dim == 1
        # known nontrivial flex: origin at rest, the two raised vertices
        # drifting left while closing and opening their heights
        u = np.array([0.0, 0.0, -1.0 / 3.0, -1.0, -1.0 / 3.0, 1.0])
        assert np.max(np.abs(mat @ u)) <= 1e-10


def test_02_whirlpool_blocks_and_first_band():
    with budget(1):
        r1, r2, x = whirlpool_blocks()
        assert np.array_equal(
            r1,
            [
                [6, 0, -6, 0, 0, 0, 0, 0],
                [0, 0, 0, 6, 0, -6, 0, 0],
                [0, 0, 0, 0, -6, 0, 6, 0],
                [0, 6, 0, 0, 0, 0, 0, -6],
            ],
        )
        assert np.array_equal(
            r2,
            [
                [3, 1, -3, -1, 0, 0, 0, 0],
                [0, 0, -1, 3, 1, -3, 0, 0],
                [0, 0, 0, 0, -3, -1, 3, 1],
                [-1, 3, 0, 0, 0, 0, 1, -3],
            ],
        )
        assert np.array_equal(
            x,
            [
                [2, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, -1, 2, 0, 0, 0, 0],
                [0, 0, 0, 0, -2, -1, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, -2],
            ],
        )

        # extend the outer-square flex across the first band, exactly
        a = (1, 1, 1, -1, -1, -1, -1, 1)
        assert all(sum(r * v for r, v in zip(row, a)) == 0 for row in r1)
        rhs = [sum(r * v for r, v in zip(row, a)) for row in x]
        b = solve_exact(list(r2) + list(x), [0, 0, 0, 0] + rhs)
        assert b == [
            Fraction(3, 4),
            Fraction(3, 2),
            Fraction(3, 2),
            Fraction(-3, 4),
            Fraction(-3, 4),
            Fraction(-3, 2),
            Fraction(-3, 2),
            Fraction(3, 4),
        ]

        fams = [whirlpool(0), whirlpool(1)]
        profile = flex_growth_profile(
            [f.graph for f in fams],
            [f.placement for f in fams],
            NormSpec(2, 2),
            {0: (1.0, 1.0), 1: (1.0, -1.0), 2: (-1.0, -1.0), 3: (-1.0, 1.0)},
        )
        assert profile.speeds[0] == pytest.approx(1.0, abs=1e-12)
        assert profile.speeds[1] == pytest.approx((45.0 / 32.0) ** 0.5, rel=1e-10)


def test_03_plane_tightness_matches_generic_rank():
    with budget(30):
        agreements = 0
        for i in range(200):
            g = random_graph(4 + i % 7, (0.35, 0.5, 0.65)[i % 3], seed=i)
            if i % 2 == 0:
                count, norm = LAMAN, NormSpec(2, 2)
            else:
                count, norm = QNORM_2D, NormSpec(2, 3)
            combinatorial = tight_spanning_subgraph(g, count) is not None
            numerical = is_rigid_generic(g, norm, seed=i).rigid
            agreements += combinatorial == numerical
        assert agreements == 200


def test_04_pebble_game_matches_enumeration():
    with budget(60):
        counts = [LAMAN, QNORM_2D, SparsityCount(3, 3)]
        for i in range(500):
            g = random_graph(3 + i % 6, 0.3 + 0.1 * (i % 5), seed=1000 + i)
            for count in counts:
                assert is_sparse(g, count) == brute_force_sparse(g, count), (
                    i,
                    count,
                )


# The two five-vertex near-complete blocks share the tips 6 and 7; the
# third block bridges their free corners 2 and 5 through a fresh triangle.
DOUBLE_BANANA_PLUS = SimpleGraph(
    range(11),
    [(0, 1), (0, 2), (1, 2), (0, 6), (1, 6), (2, 6), (0, 7), (1, 7), (2, 7)]
    + [(3, 4), (3, 5), (4, 5), (3, 6), (4, 6), (5, 6), (3, 7), (4, 7), (5, 7)]
    + [(8, 9), (8, 10), (9, 10), (2, 8), (2, 9), (2, 10), (5, 8), (5, 9), (5, 10)],
)


def test_05_double_banana_relative_rigidity():
    with budget(120):
        norm = NormSpec(3, 2)
        g = DOUBLE_BANANA_PLUS
        assert g.edge_set == banana_tower(2).edge_set

        assert is_rigid_generic(g, norm, seed=0).report.flex_dim == 1

        waist = SimpleGraph(
            range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        )
        verdict = relative_rigidity(g, waist, norm, seed=0)
        assert verdict.relatively_rigid

        # relative rigidity without any rigid subgraph to carry it
        assert exhaustive_rigid_container(g, waist, norm, seed=0) is None


def test_06_construction_chains_cover_all_moves():
    with budget(60):
        kinds = Counter()
        for i in range(50):
            target = grow_tight_graph("euclidean", 4 + i % 7, seed=i)
            e = target.edges[0]
            chain = find_chain(SimpleGraph(e, [e]), target, EUCLIDEAN_MODE)
            assert verify_chain(chain, EUCLIDEAN_MODE).ok
            assert all(is_sparse(s, LAMAN).tight for s in chain.stages)
            kinds.update(m.kind for m in chain.moves)
        for i in range(50):
            target = grow_tight_graph("qnorm", 4 + i % 7, seed=i)
            chain = find_chain(SimpleGraph([0], []), target, QNORM_MODE)
            assert verify_chain(chain, QNORM_MODE).ok
            assert all(is_sparse(s, QNORM_2D).tight for s in chain.stages)
            kinds.update(m.kind for m in chain.moves)
        assert set(kinds) >= {
            "vertex_ext",
            "edge_move",
            "vertex_to_k4",
            "vertex_to_4cycle",
        }


def test_07_body_bar_count_matches_rank():
    with budget(120):
        for i in range(50):
            norm = NormSpec(2 if i % 2 == 0 else 3, 2 if (i // 2) % 2 == 0 else 3)
            m = random_multibody(2 + i % 4, norm, seed=i)
            by_count = tay_decide(m, norm, seed=i).rigid
            by_rank = is_rigid_generic(m.underlying, norm, seed=i + 1).rigid
            assert by_count == by_rank, (i, norm)

        # constructed placements must pin tight non-Euclidean structures
        # down to the d translations
        checked = 0
        for d in (2, 3):
            for n_bodies in (2, 3, 4, 5):
                norm = NormSpec(d, 3)
                m = random_multibody(
                    n_bodies, norm, seed=100 + d + n_bodies, n_bars=d * (n_bodies - 1)
                )
                if len(m.inter_body_edges) != d * (n_bodies - 1):
                    continue
                if not tay_decide(m, norm, seed=0).rigid:
                    continue
                result = special_placement(m, norm, seed=0)
                assert result.report.nullity == d
                checked += 1
        assert checked >= 4


def test_08_surface_flex_formula():
    with budget(60):
        cases = [(SimplicialMeta(0, (), 1), size) for size in (1, 2)]
        cases += [(SimplicialMeta(1, (hole,), 1), 2) for hole in (4, 5, 6)]
        cases += [
            (SimplicialMeta(2, pair, 2), 2)
            for pair in [(4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (6, 6)]
        ]
        for meta, size in cases:
            g = simplicial_holes(meta, size).graph
            assert g.n_vertices <= 14
            for q in (2, 3):
                norm = NormSpec(3, q)
                predicted = simplicial_flex_dim(meta, norm)
                measured = is_rigid_generic(g, norm, seed=7).report.flex_dim
                assert predicted == measured, (meta, size, q)

        octahedron = simplicial_holes(SimplicialMeta(0, (), 1), 1).graph
        k6 = add_shafts(octahedron)
        assert k6.edge_set == complete_graph(6).edge_set
        rep = is_rigid_generic(k6, NormSpec(3, 3), seed=0).report
        assert rep.rank == k6.n_edges
        assert rep.flex_dim == 0


def test_09_banana_tower_certification():
    with budget(30):
        norm = NormSpec(3, 2)
        stages = [banana_tower(k) for k in (1, 2, 3)]
        verdict = tower_rigidity(Tower(stages), norm, seed=0)
        assert verdict.status == TOWER_RIGID
        assert verdict.relatively_rigid_prefix == 3

        # each single block is rigid on its own ...
        block = SimpleGraph(
            range(5),
            [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (3, 4)],
        )
        assert is_rigid_generic(block, norm, seed=1).rigid
        # ... yet no stage of the tower is
        for k, stage in enumerate(stages):
            assert not is_rigid_generic(stage, norm, seed=k).rigid


def test_10_configuration_path_tracking():
    with budget(10):
        square = SimpleGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        p_sq = Placement(
            2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
        )
        shear = {0: (0.0, 0.0), 1: (0.0, 0.0), 2: (1.0, 0.0), 3: (1.0, 0.0)}
        path = continuation_track(
            square, p_sq, NormSpec(2, 2), shear, steps=50, step_length=0.02
        )
        assert len(path) == 50
        base = lq_lengths(square, p_sq, 2)
        for step in path:
            drift = max(
                abs(a - b) for a, b in zip(lq_lengths(square, step, 2), base)
            )
            assert drift <= 1e-8
        assert max(
            abs(path[-1][v][i] - p_sq[v][i]) for v in square.vertices for i in range(2)
        ) > 0.1

        triangle = complete_graph(3)
        p_tri = Placement(2, {0: (0.0, 0.0), 1: (-SQRT3, 1.0), 2: (SQRT3, 1.0)})
        flex = {0: (0.0, 0.0), 1: (-1.0 / 3.0, -1.0), 2: (-1.0 / 3.0, 1.0)}
        cubic = continuation_track(
            triangle, p_tri, NormSpec(2, 3), flex, steps=30, step_length=0.02
        )
        base3 = lq_lengths(triangle, p_tri, 3)
        for step in cubic:
            drift = max(
                abs(a - b) for a, b in zip(lq_lengths(triangle, step, 3), base3)
            )
            assert drift <= 1e-8
        assert max(
            abs(cubic[-1][v][i] - p_tri[v][i])
            for v in triangle.vertices
            for i in range(2)
        ) > 0.1

        # the same triangle is rigid in the Euclidean plane, so the
        # projected direction vanishes and the path stays put
        euclid = continuation_track(
            triangle, p_tri, NormSpec(2, 2), flex, steps=30, step_length=0.02
        )
        for step in euclid:
            assert all(step[v] == p_tri[v] for v in triangle.vertices)


def test_11_pebble_engine_at_scale():
    # Inputs: a 400-vertex Laman graph with a 10-vertex part, the even-position
    # edges of a 100-vertex one, and five nested Henneberg stages of 20..100
    # vertices, each grown from the last without touching its edges.
    big = grow_tight_graph("euclidean", 400, 11)
    part = induced_subgraph(big, big.vertices[::40])
    laman = grow_tight_graph("euclidean", 100, 12)
    loose = SimpleGraph(laman.vertices, laman.edges[::2])
    stages = [grow_tight_graph("euclidean", 20, 13)]
    for n in (40, 60, 80, 100):
        prev = stages[-1]
        stages.append(grow_tight_graph("euclidean", n, 13 + n, prev, prev.edges))
    with budget(5):
        container = rigid_container_2d(big, part, 2)
        full = augment_to_tight(loose, LAMAN)
        witness = sequential_rigidity_2d(Tower(stages), 2)
    assert part.is_subgraph_of(container) and container.is_subgraph_of(big)
    assert tight_spanning_subgraph(container, LAMAN) is not None
    assert loose.is_subgraph_of(full) and is_sparse(full, LAMAN).tight
    assert len(witness) == len(stages) - 1
    for small, h, large in zip(stages, witness, stages[1:]):
        assert small.is_subgraph_of(h) and h.is_subgraph_of(large)
        assert tight_spanning_subgraph(h, LAMAN) is not None



def test_12_certified_rank_at_scale():
    # A 60-vertex rigid 0-extension graph in 3-space cut into 10 prefix
    # stages, and a 10-body union of two spanning trees (18 bars) in the
    # cubic plane, placed on its own 45 vertices.
    full = zero_extension_graph(60, 3, 4, 12)
    tower = Tower([induced_subgraph(full, range(n)) for n in range(6, 61, 6)])
    cubic = NormSpec(2, 3)
    m = realize_bodybar(random_tight_multigraph(10, 2, seed=12), cubic)
    with budget(5):
        verdict = tower_rigidity(tower, NormSpec(3, 2), seed=0)
        placed = special_placement(m, cubic, seed=0)
    assert verdict.status == TOWER_RIGID
    assert verdict.relatively_rigid_prefix == 10
    assert placed.report.nullity == 2
    assert placed.model == m and m.underlying.n_vertices == 45


def test_13_relative_rigidity_by_pinning():
    # A 400-vertex Laman graph grown from a 200-vertex one, and two
    # 200-vertex Laman blocks joined by two bars, pinned at two vertices of
    # each block, which removes all but one joint freedom.
    euclid = NormSpec(2, 2)
    small = grow_tight_graph("euclidean", 200, 31)
    big = grow_tight_graph("euclidean", 400, 32, small, small.edges)
    right = grow_tight_graph("euclidean", 200, 33)
    shifted = tuple((a + 200, b + 200) for a, b in right.edges)
    joined = SimpleGraph(range(400), small.edges + shifted + ((5, 205), (50, 250)))
    anchor = SimpleGraph([0, 1, 200, 201], [])
    with budget(5):
        rigid = relative_rigidity(big, small, euclid, seed=1)
        loose = relative_rigidity(joined, anchor, euclid, seed=2)
    assert rigid.relatively_rigid and rigid.witness_flex is None
    assert (rigid.nullity_graph, rigid.nullity_anchored) == (3, 3)
    assert not loose.relatively_rigid
    assert (loose.nullity_graph, loose.nullity_anchored) == (4, 3)
    assert_witness_flex(joined, anchor, euclid, loose)


def test_14_special_placement_at_scale():
    # A 16-body union of three spanning trees (45 bars) in cubic 3-space:
    # the structure itself, 104 vertices, is placed and certified.
    cubic = NormSpec(3, 3)
    m = realize_bodybar(random_tight_multigraph(16, 3, seed=0), cubic)
    assert len(m.inter_body_edges) == 45
    with budget(5):
        placed = special_placement(m, cubic, seed=0)
    assert placed.model == m
    assert placed.report.nullity == 3 and placed.report.flex_dim == 0


def test_15_peeled_rank_ignores_input_order(monkeypatch):
    # A 1200-vertex rigid 0-extension graph in 3-space with its labels,
    # vertex order and edge order shuffled.  Each vertex joins at most three
    # earlier ones, so peeling takes the whole exact matrix and the
    # elimination receives no columns, whatever the order.
    g = shuffled_copy(zero_extension_graph(1200, 3, 4, seed=7), random.Random(15))
    ranked = []

    def recording(m):
        ranked.append(m.shape[1])
        return rank_mod_p(m)

    monkeypatch.setattr(frameworks, "rank_mod_p", recording)
    with budget(1):
        verdict = is_rigid_generic(g, NormSpec(3, 2))
    assert verdict.rigid and verdict.report.rank == 3 * 1200 - 6
    assert ranked == [0]


def test_16_bodies_certified_by_spanning_subgraphs(monkeypatch):
    # Eight K_60 bodies in the plane and four K_80 bodies in 3-space, labels
    # and orders shuffled.  Each body certifies on a 0-extension graph on a
    # triangle or a tetrahedron that the peel keeps, so the elimination
    # receives no columns, instead of eliminating all 1770 or 3160 rows.
    rng = random.Random(16)
    cases = [
        (complete_bodies(8, 60, rng), NormSpec(2, 2)),
        (complete_bodies(4, 80, rng), NormSpec(3, 2)),
    ]
    ranked = []

    def recording(m):
        ranked.append(m.shape[1])
        return rank_mod_p(m)

    monkeypatch.setattr(frameworks, "rank_mod_p", recording)
    with budget(0.5):
        for (g, bodies), norm in cases:
            assert validate_multibody(g, bodies, norm).n_bodies == len(bodies)
    assert ranked == [0] * 12


def test_17_chains_on_one_game(monkeypatch):
    # The chain search undoes each candidate move on one pebble game over
    # the target, and verification plays each move forward on one game from
    # the start, instead of a fresh game per backward step and per stage.
    target = grow_tight_graph("euclidean", 800, 3, protected=[(0, 1)])
    start = SimpleGraph([0, 1], [(0, 1)])
    built = []
    init = PebbleGame.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PebbleGame, "__init__", counting_init)
    with budget(6):
        chain = find_chain(start, target, EUCLIDEAN_MODE)
        searched = len(built)
        report = verify_chain(chain, EUCLIDEAN_MODE)
    # find_chain: the two input tightness checks and the search's game
    assert searched == 3
    assert len(built) == searched + 1
    assert report.ok and report.final == target
    assert len(chain.moves) == 798
