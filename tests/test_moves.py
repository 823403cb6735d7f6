import random
from itertools import combinations

import pytest

from helpers import grow_tight_graph, reference_apply
from rigidkit.errors import InputError, MoveError
from rigidkit.frameworks import NormSpec, flex_report, random_placement
from rigidkit.graphs import SimpleGraph, complete_graph, path_graph
from rigidkit.moves import (
    MOVE_CLASSES,
    ChainReport,
    ConstructionChain,
    EdgeMove,
    VertexExtension,
    VertexSplit3D,
    VertexTo4Cycle,
    VertexToK4,
    _exchange,
    apply_move,
    concatenate_chains,
    count_for_mode,
    find_chain,
    inverse_candidates,
    verify_chain,
)
from rigidkit.sparsity import LAMAN, QNORM_2D, PebbleGame, is_sparse

K1 = SimpleGraph([0], [])
K2 = SimpleGraph([0, 1], [(0, 1)])


def test_vertex_extension_k2_to_k3():
    out = apply_move(K2, VertexExtension(2, (0, 1)))
    assert out == complete_graph(3)


def test_vertex_to_k4_on_k1():
    out = apply_move(K1, VertexToK4(0, (1, 2, 3)))
    assert out == complete_graph(4)
    assert is_sparse(out, QNORM_2D).tight


def test_edge_move_on_k3():
    out = apply_move(complete_graph(3), EdgeMove((0, 1), 3, (0, 1, 2)))
    assert out.n_vertices == 4 and out.n_edges == 5
    assert not out.has_edge(0, 1)
    assert is_sparse(out, LAMAN).tight


def test_vertex_to_4cycle_moves_edges():
    g = complete_graph(4)
    out = apply_move(g, VertexTo4Cycle(base=0, pair=(1, 2), vertex=4, moved=(3,)))
    assert out.n_vertices == 5 and out.n_edges == 8
    assert not out.has_edge(0, 3)
    assert out.has_edge(4, 1) and out.has_edge(4, 2) and out.has_edge(4, 3)
    assert is_sparse(out, QNORM_2D).tight


MALFORMED = [
    (K2, VertexExtension(2, (0, 0))),
    (K2, VertexExtension(1, (0,))),
    (K2, VertexExtension(2, (0, 5))),
    (complete_graph(3), EdgeMove((0, 3), 4, (0, 1, 2))),
    (complete_graph(3), EdgeMove((0, 1), 3, (0, 2))),
    (complete_graph(4), VertexTo4Cycle(0, (1, 1), 4)),
    (complete_graph(4), VertexTo4Cycle(0, (1, 2), 4, moved=(1,))),
    (complete_graph(4), VertexToK4(0, (4, 5, 6), ((3, 9),))),
    (complete_graph(4), VertexToK4(0, (1, 4, 5))),
    (complete_graph(4), VertexSplit3D(0, (1, 1), 4)),
]


@pytest.mark.parametrize("graph,move", MALFORMED)
def test_malformed_moves_rejected(graph, move):
    with pytest.raises(MoveError) as got:
        apply_move(graph, move)
    with pytest.raises(MoveError) as want:
        reference_apply(graph, move)
    assert str(got.value) == str(want.value)


def random_valid_move(g, rng):
    """A seeded move of any kind that applies to g, with a fresh label that
    may sort below the labels it joins."""
    unused = [v for v in range(max(g.vertices) + 4) if v not in g.vertex_set]
    fresh = rng.choice(unused)
    verts = list(g.vertices)
    kind = rng.randrange(5)
    if kind == 0:
        nbrs = rng.sample(verts, rng.randint(1, 3))
        return VertexExtension(fresh, tuple(nbrs))
    if kind == 1:
        a, b = rng.choice(g.edges)
        others = [v for v in verts if v not in (a, b)]
        nbrs = [a, b] + rng.sample(others, rng.randint(0, min(2, len(others))))
        rng.shuffle(nbrs)
        return EdgeMove((b, a), fresh, tuple(nbrs))
    if kind == 2:
        base = rng.choice(verts)
        added = tuple(rng.sample(unused, 3))
        reassigned = tuple(
            (x, rng.choice(added)) for x in g.neighbors(base) if rng.random() < 0.5
        )
        return VertexToK4(base, added, reassigned)
    base = rng.choice([v for v in verts if g.degree(v) >= 2])
    pair = tuple(rng.sample(g.neighbors(base), 2))
    moved = tuple(w for w in g.neighbors(base) if w not in pair and rng.random() < 0.5)
    return (VertexTo4Cycle if kind == 3 else VertexSplit3D)(base, pair, fresh, moved)


def test_apply_move_matches_reference():
    kinds = set()
    for seed in range(12):
        rng = random.Random(seed)
        g = SimpleGraph([5, 2, 9], [(9, 2), (2, 5), (5, 9)])
        for _ in range(25):
            m = random_valid_move(g, rng)
            got, want = apply_move(g, m), reference_apply(g, m)
            assert (got.vertices, got.edges) == (want.vertices, want.edges), m
            kinds.add(m.kind)
            g = got
    assert kinds == set(MOVE_CLASSES)


# A (2,2)-tight graph on which undoing vertex-to-4-cycle moves that delete
# vertex 0 re-inserts 6-1, accepted, then 6-3 or 7-3, refused.
_REFUSING = SimpleGraph(
    range(8),
    [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (2, 5), (2, 6),
     (2, 7), (5, 6), (5, 7), (6, 7), (0, 5), (4, 6)],
)


@pytest.mark.parametrize(
    "graph,count,move",
    [
        # Re-inserts a second copy of 0-1 into the tight triangle 0, 1, 2.
        (
            SimpleGraph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (3, 4), (1, 4)]),
            LAMAN,
            EdgeMove((0, 1), 4, (0, 1, 3)),
        ),
        (_REFUSING, QNORM_2D, VertexTo4Cycle(6, (4, 5), 0, (1, 3))),
        (_REFUSING, QNORM_2D, VertexTo4Cycle(7, (4, 5), 0, (1, 3))),
    ],
)
def test_refused_reduction_restores_the_game(graph, count, move):
    game = PebbleGame.over(graph, count)
    dropped, added = move.edit()
    assert not _exchange(game, added, dropped)
    fresh = PebbleGame.over(graph, count)
    for pair in combinations(graph.vertices, 2):
        assert game.blocker(*pair) == fresh.blocker(*pair), pair


def test_inverse_of_degree_two_vertex_is_deletion():
    g = apply_move(complete_graph(3), VertexExtension(3, (0, 2)))
    cands = inverse_candidates(g, LAMAN, 3)
    assert cands == [VertexExtension(3, (0, 2))]
    reduced = g.without_vertex(3)
    assert apply_move(reduced, cands[0]) == g


def test_inverse_of_degree_three_vertex_restores_triangle():
    g = apply_move(complete_graph(3), EdgeMove((0, 1), 3, (0, 1, 2)))
    cands = inverse_candidates(g, LAMAN, 3)
    assert len(cands) >= 1
    m = cands[0]
    assert isinstance(m, EdgeMove) and m.removed == (0, 1)
    reduced = SimpleGraph([0, 1, 2], [*g.without_vertex(3).edges, m.removed])
    assert reduced == complete_graph(3)
    assert apply_move(reduced, m) == g


def test_inverse_rejects_out_of_range_degree():
    with pytest.raises(InputError):
        inverse_candidates(path_graph(3), LAMAN, 0)


def test_find_chain_k2_to_k3():
    chain = find_chain(K2, complete_graph(3), "euclidean")
    assert len(chain.moves) == 1
    assert isinstance(chain.moves[0], VertexExtension)
    assert chain.final == complete_graph(3)


def test_find_chain_k1_to_k4():
    chain = find_chain(K1, complete_graph(4), "qnorm")
    assert len(chain.moves) == 1
    assert isinstance(chain.moves[0], VertexToK4)


def test_find_chain_identical_graphs_is_empty():
    chain = find_chain(K2, K2, "euclidean")
    assert chain.moves == ()
    assert chain.final == K2


def test_find_chain_validates_inputs():
    with pytest.raises(InputError):
        find_chain(K2, path_graph(4), "euclidean")
    other = SimpleGraph([5, 6], [(5, 6)])
    with pytest.raises(InputError):
        find_chain(other, complete_graph(3), "euclidean")
    with pytest.raises(InputError):
        find_chain(K2, complete_graph(3), "spherical")


def test_find_chain_forces_both_contraction_kinds():
    g = apply_move(complete_graph(4), VertexTo4Cycle(base=1, pair=(2, 3), vertex=4))
    chain = find_chain(K1, g, "qnorm")
    kinds = {type(m) for m in chain.moves}
    assert kinds == {VertexToK4, VertexTo4Cycle}
    report = verify_chain(chain, "qnorm")
    assert report.ok


@pytest.mark.parametrize("seed", range(6))
def test_find_chain_euclidean_random_targets(seed):
    n = 5 + seed % 4
    target = grow_tight_graph("euclidean", n, seed, protected=[(0, 1)])
    chain = find_chain(K2, target, "euclidean")
    assert chain.final == target
    assert len(chain.moves) == n - 2
    report = verify_chain(chain, "euclidean")
    assert report.ok, report.reason


def test_laman_chain_checks_only_its_inputs(monkeypatch):
    # The target and every reduction are checked on the search's own pebble
    # game, so the search runs no sparsity check beyond the start's, in
    # either mode.
    checked = []

    def counting(g, count):
        checked.append(g)
        return is_sparse(g, count)

    monkeypatch.setattr("rigidkit.moves.is_sparse", counting)
    kinds = {}
    for mode, start, protected in (("euclidean", K2, [(0, 1)]), ("qnorm", K1, [])):
        checked.clear()
        target = grow_tight_graph(mode, 40, 7, protected=protected)
        chain = find_chain(start, target, mode)
        assert checked == [start]
        assert chain.final == target
        kinds[mode] = {type(m) for m in chain.moves}
    assert kinds["euclidean"] == {VertexExtension, EdgeMove}
    assert kinds["qnorm"] & {VertexToK4, VertexTo4Cycle}


@pytest.mark.parametrize("seed", range(6))
def test_find_chain_qnorm_random_targets(seed):
    n = 6 + seed % 5
    target = grow_tight_graph("qnorm", n, seed)
    chain = find_chain(K1, target, "qnorm")
    assert chain.final == target
    report = verify_chain(chain, "qnorm")
    assert report.ok, report.reason
    added = sum(len(m.vertices_added) for m in chain.moves)
    assert added == n - 1


@pytest.mark.parametrize("mode,base_n", [("euclidean", 5), ("qnorm", 6)])
def test_chain_concatenation(mode, base_n):
    start = K2 if mode == "euclidean" else K1
    mid = grow_tight_graph(mode, base_n, 31, protected=[(0, 1)] if mode == "euclidean" else [])
    big = grow_tight_graph(mode, base_n + 3, 32, start=mid, protected=mid.edges)
    first = find_chain(start, mid, mode)
    second = find_chain(mid, big, mode)
    joined = concatenate_chains(first, second)
    assert joined.final == big
    assert verify_chain(joined, mode).ok


def test_concatenation_rejects_mismatched_chains():
    a = find_chain(K2, complete_graph(3), "euclidean")
    with pytest.raises(InputError):
        concatenate_chains(a, a)


def test_verify_chain_reports_malformed_move():
    chain = ConstructionChain(K2, (VertexExtension(2, (0, 0)),))
    report = verify_chain(chain, "euclidean")
    assert not report.ok
    assert report.failure_stage == 1
    assert report.reason


def test_verify_chain_rejects_foreign_kind_in_euclidean_mode():
    chain = ConstructionChain(K2, (VertexToK4(0, (2, 3, 4)),))
    report = verify_chain(chain, "euclidean")
    assert not report.ok
    assert "not allowed" in report.reason


def test_verify_chain_rejects_untight_start():
    report = verify_chain(ConstructionChain(path_graph(3), ()), "euclidean")
    assert not report.ok and report.failure_stage == 0


def test_verify_chain_rejects_a_move_of_the_wrong_degree():
    chain = ConstructionChain(K2, (VertexExtension(2, (0, 1)), VertexExtension(3, (2,))))
    assert verify_chain(chain, "euclidean") == ChainReport(False, 2, "move degree 1 != 2")


def test_verify_chain_reports_a_stage_its_game_refuses(monkeypatch):
    # Every allowed move keeps a tight graph tight, so only a game that
    # refuses the move's edges reaches this report.
    monkeypatch.setattr("rigidkit.moves._exchange", lambda game, out, into: False)
    chain = ConstructionChain(K2, (VertexExtension(2, (0, 1)),))
    assert verify_chain(chain, "euclidean") == ChainReport(False, 1, "stage is not tight")


@pytest.mark.parametrize("mode,seed", [("euclidean", 3), ("euclidean", 8), ("qnorm", 3), ("qnorm", 8)])
def test_growth_keeps_every_prefix_tight(mode, seed):
    count = count_for_mode(mode)
    g = grow_tight_graph(mode, 9, seed)
    assert is_sparse(g, count).tight


def _flex_dims(g, qs, seed=0):
    out = []
    for q in qs:
        norm = NormSpec(3, q)
        best = None
        for t in range(3):
            rep = flex_report(g, random_placement(g, norm, seed + t), norm)
            if best is None or rep.flex_dim < best:
                best = rep.flex_dim
        out.append(best)
    return out


def test_vertex_split_3d_preserves_flex_dimensions():
    g = complete_graph(4)
    assert _flex_dims(g, [2, 3]) == [0, 3]
    split = apply_move(g, VertexSplit3D(split=0, anchors=(1, 2), vertex=4, moved=(3,)))
    assert split.n_vertices == 5 and split.n_edges == 9
    assert _flex_dims(split, [2, 3]) == [0, 3]
    again = apply_move(split, VertexSplit3D(split=4, anchors=(1, 3), vertex=5))
    assert again.n_edges == 3 * again.n_vertices - 6
    assert _flex_dims(again, [2, 3]) == [0, 3]
