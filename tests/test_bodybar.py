"""Body-and-bar structures: validation, collapsed counts, tree splits,
constructed placements, and staged certification."""

import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    LabelPebbleGame,
    complete_bodies,
    random_multibody,
    random_tight_multigraph,
    realize_bodybar,
    seeded_tight_witnesses,
    unskipped_rigid_container_multibody,
)
from rigidkit import bodybar, frameworks, jsonio, towers
from rigidkit.bodybar import (
    BODYBAR_TOWER_MINIMAL,
    MultiBodyGraph,
    MultiBodyTower,
    body_bar_count,
    bodybar_tower_decide,
    essentially_independent,
    labeled_body_bar,
    nash_williams_trees,
    rigid_container_multibody,
    spanning_tree_layers,
    special_placement,
    tay_decide,
    validate_multibody,
)
from rigidkit.errors import (
    AlgorithmError,
    InconsistencyError,
    InputError,
    NestingError,
    PlacementError,
)
from rigidkit.frameworks import (
    NormSpec,
    is_rigid_generic,
    random_placement,
    rigidity_matrix,
)
from rigidkit.graphs import (
    MultiGraph,
    SimpleGraph,
    complete_graph,
    induced_subgraph,
    validate_tower,
)
from rigidkit.sparsity import PebbleGame, SparsityCount, is_sparse
from rigidkit.towers import LAMAN_TOWER_NOT, LAMAN_TOWER_RIGID, relative_rigidity

EUCLID2 = NormSpec(2, 2)
CUBIC2 = NormSpec(2, 3)
EUCLID3 = NormSpec(3, 2)
CUBIC3 = NormSpec(3, 3)
MID3 = NormSpec(3, 2.5)


def build(sizes, bars):
    """Complete bodies on consecutive labels plus the given bars."""
    bodies = []
    label = 0
    for s in sizes:
        bodies.append(tuple(range(label, label + s)))
        label += s
    within = [
        (b[i], b[j]) for b in bodies for i in range(len(b)) for j in range(i + 1, len(b))
    ]
    return SimpleGraph(range(label), within + list(bars)), tuple(bodies)


def chain_multibody(n_bodies, size, per, norm, extra=()):
    """Path of complete bodies, per bars at each junction."""
    assert size >= 2 * per
    bars = []
    for i in range(n_bodies - 1):
        lo, hi = i * size, (i + 1) * size
        bars += [(lo + size - per + j, hi + j) for j in range(per)]
    g, bodies = build((size,) * n_bodies, bars + list(extra))
    return validate_multibody(g, bodies, norm)


def induced_multibody(m, ids):
    """Sub-structure on a subset of body indices with all bars inside."""
    bodies = [m.bodies[i] for i in ids]
    keep = {v for b in bodies for v in b}
    vs = [v for v in m.underlying.vertices if v in keep]
    es = [e for e in m.underlying.edges if e[0] in keep and e[1] in keep]
    bars = [e for e in m.inter_body_edges if e[0] in keep and e[1] in keep]
    return MultiBodyGraph(SimpleGraph(vs, es), bodies, bars)


# ---- validation ----------------------------------------------------------


def test_two_k4_bodies_three_bars_valid():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, EUCLID2)
    assert m.n_bodies == 2
    assert m.inter_body_edges == ((0, 4), (1, 5), (2, 6))


def test_floppy_body_rejected():
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    block = [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    g = SimpleGraph(range(8), ring + block + [(0, 4)])
    with pytest.raises(InputError, match="body 0 .* not generically rigid"):
        validate_multibody(g, [(0, 1, 2, 3), (4, 5, 6, 7)], EUCLID2)


def test_vertex_with_two_bars_rejected():
    g, bodies = build((4, 4), [(0, 4), (0, 5)])
    with pytest.raises(InputError, match="vertex 0 meets two"):
        validate_multibody(g, bodies, EUCLID2)


def test_partition_problems_collected():
    g, _ = build((4, 4), [(0, 4)])
    with pytest.raises(InputError) as err:
        validate_multibody(g, [(0, 1, 2, 3), (3, 4, 5, 6)], EUCLID2)
    assert "appears in bodies" in str(err.value)
    assert "belong to no body" in str(err.value)


def test_empty_body_and_vertices_outside_the_graph_rejected():
    g, _ = build((4, 4), [(0, 4)])
    with pytest.raises(InputError) as err:
        MultiBodyGraph(g, [(0, 1, 2, 3), (), (4, 5, 6, 7, 9)], [(0, 4)])
    assert str(err.value) == "body 1 is empty; body vertices [9] are not in the graph"


def test_every_entry_point_names_a_body_by_its_listed_position():
    g = SimpleGraph(range(9), [])
    bodies = [(6, 7, 8), (3, 4, 5, 0), (0, 1, 2)]
    doc = {
        "graph": jsonio.graph_to_json(g),
        "bodies": [list(b) for b in bodies],
        "interbody_edges": [],
    }
    for build_it in (
        lambda: validate_multibody(g, bodies, EUCLID2),
        lambda: MultiBodyGraph(g, bodies, []),
        lambda: jsonio.multibody_from_json(doc),
    ):
        with pytest.raises(InputError) as err:
            build_it()
        assert str(err.value) == "vertex 0 appears in bodies 1 and 2"


def test_bodies_are_kept_sorted_by_least_vertex():
    g, _ = build((4, 4), [(0, 4)])
    m = MultiBodyGraph(g, [(7, 6, 5, 4), (3, 2, 1, 0)], [(0, 4)])
    assert m.bodies == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_body_rigidity_depends_on_norm():
    g, bodies = build((4, 4), [(0, 4)])
    assert validate_multibody(g, bodies, CUBIC2).n_bodies == 2
    with pytest.raises(InputError, match="not generically rigid"):
        validate_multibody(g, bodies, CUBIC3)


# ---- collapsing ----------------------------------------------------------


def test_triple_bar_collapses_to_triple_edge():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, EUCLID2)
    collapsed = m.collapsed
    assert collapsed.n_vertices == 2
    assert collapsed.multiplicity(0, 1) == 3
    assert m.collapsed is collapsed


def test_bar_triangle_collapses_to_doubled_triangle():
    bars = [(0, 4), (1, 5), (2, 8), (3, 9), (6, 10), (7, 11)]
    g, bodies = build((4, 4, 4), bars)
    m = validate_multibody(g, bodies, EUCLID2)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert m.collapsed.multiplicity(a, b) == 2


def test_collapse_preserves_count_and_alignment():
    m = random_multibody(4, EUCLID2, seed=3)
    assert m.collapsed.n_edges == len(m.inter_body_edges)
    owner = m.body_of
    for e, (u, w) in zip(m.collapsed.edges, m.inter_body_edges):
        assert e == tuple(sorted((owner[u], owner[w])))


def test_labeled_collapse_uses_least_vertex():
    g, bodies = build((4, 4), [(0, 4), (1, 5)])
    m = validate_multibody(g, bodies, CUBIC2)
    lab = labeled_body_bar(m)
    assert lab.vertices == (0, 4)
    assert sorted(lab.edges) == [(0, 4), (0, 4)]


# ---- rigidity decision ---------------------------------------------------


def test_two_bodies_three_bars_rigid_in_the_plane():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, EUCLID2)
    verdict = tay_decide(m, EUCLID2)
    assert verdict.rigid
    assert verdict.cross_checked
    assert verdict.witness.n_edges == 3


def test_two_bodies_three_bars_rigid_cubic_space():
    g, bodies = build((6, 6), [(0, 6), (1, 7), (2, 8)])
    m = validate_multibody(g, bodies, CUBIC3)
    assert tay_decide(m, CUBIC3).rigid


def test_five_bars_short_of_the_euclidean_space_count():
    g, bodies = build((6, 6), [(i, 6 + i) for i in range(5)])
    m = validate_multibody(g, bodies, EUCLID3)
    verdict = tay_decide(m, EUCLID3)
    assert not verdict.rigid
    assert verdict.witness is None


def test_decision_needs_two_bodies():
    g, bodies = build((4,), [])
    m = validate_multibody(g, bodies, EUCLID2)
    with pytest.raises(InputError, match="at least 2 bodies"):
        tay_decide(m, EUCLID2)


def counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_flexible_cross_check_stops_at_the_predicted_rank(monkeypatch):
    # Body edges are dependent, so the rank never reaches min(|E|, top); the
    # predicted rank 2 * (18 - 6) + 5 stops the draw after one placement.
    g, bodies = build((6, 6), [(i, 6 + i) for i in range(5)])
    m = validate_multibody(g, bodies, EUCLID3)
    ranks = counting(monkeypatch, frameworks, "placement_rank")
    verdict = tay_decide(m, EUCLID3, seed=3)
    assert not verdict.rigid and verdict.cross_checked
    assert len(ranks) == 1
    assert not is_rigid_generic(g, EUCLID3, seed=3).rigid
    assert len(ranks) == 1 + 5


@pytest.mark.parametrize("norm", [EUCLID3, CUBIC3])
def test_validation_in_space_builds_no_kept_graph(monkeypatch, norm):
    # Both complete bodies drop rows, but only the plane check reads the
    # kept edges: in space a body's own graph is the one built for it.
    g, bodies = build((7, 7), [(i, 7 + i) for i in range(6)])
    built = []
    init = SimpleGraph.__init__

    def recording(self, *args):
        init(self, *args)
        built.append((self.vertices, self.edges))

    monkeypatch.setattr(SimpleGraph, "__init__", recording)
    m = validate_multibody(g, bodies, norm)
    monkeypatch.undo()
    assert built == [(h.vertices, h.edges) for h in m.body_subgraphs]


def test_rank_above_the_prediction_is_inconsistent(monkeypatch):
    g, bodies = build((6, 6), [(i, 6 + i) for i in range(5)])
    m = validate_multibody(g, bodies, EUCLID3)
    monkeypatch.setattr(frameworks, "placement_rank", lambda g, p, norm: 30)
    with pytest.raises(InconsistencyError, match="rank 30 .* generic rank 29"):
        tay_decide(m, EUCLID3)


def test_bodies_keep_the_graph_order(monkeypatch):
    """Each body is ranked, and listed, in the vertex and edge order that
    induced_subgraph gives on a graph with shuffled orders."""
    rng = random.Random(5)
    for n_bodies in range(1, 6):
        g, bodies = complete_bodies(n_bodies, 4, rng)
        ranked = counting(monkeypatch, bodybar, "_certified_rank")
        m = validate_multibody(g, bodies, CUBIC2)
        assert [(h.vertices, h.edges) for h, *_ in ranked] == [
            (h.vertices, h.edges) for h in (induced_subgraph(g, b) for b in bodies)
        ]
        assert [(h.vertices, h.edges) for h in m.body_subgraphs] == [
            (h.vertices, h.edges) for h in (induced_subgraph(g, b) for b in m.bodies)
        ]


@pytest.mark.parametrize("norm", [EUCLID2, CUBIC2, EUCLID3, CUBIC3, MID3])
def test_rigid_bodies_share_one_placement(monkeypatch, norm):
    m = random_multibody(5, norm, seed=8)
    draws = counting(monkeypatch, frameworks, "random_placement")
    # bodybar holds its own reference to the function
    monkeypatch.setattr(bodybar, "random_placement", frameworks.random_placement)
    again = validate_multibody(m.underlying, m.bodies, norm)
    assert again == m
    assert len(draws) == 1


def test_sampled_decisions_count_rigid_motions_by_the_norm(monkeypatch):
    """At a sampled placement the points are in general position, so the
    norm gives the rigid-motion count and no decision evaluates the motions
    to count them."""
    g, bodies = build((6, 6), [(0, 6), (1, 7), (2, 8)])

    def refuse(*args, **kwargs):
        raise AssertionError("rigid motions evaluated for a count")

    monkeypatch.setattr(frameworks, "trivial_motion_basis", refuse)
    m = validate_multibody(g, bodies, CUBIC3)
    assert is_rigid_generic(g, CUBIC3).rigid
    assert is_rigid_generic(complete_graph(6), EUCLID3).rigid
    assert relative_rigidity(complete_graph(6), complete_graph(3), EUCLID3).relatively_rigid
    verdict = tay_decide(m, CUBIC3)
    assert verdict.rigid and verdict.cross_checked
    assert special_placement(m, CUBIC3).report.rigid


def test_body_short_of_its_certificate_takes_the_full_rank():
    # K_{3,3} and K_5 glued along the K_{3,3} edge 0-4: rigid, rank 15.  The
    # drops cut 1-5 from the K_{3,3} and 0-7, 0-8 from the K_5, and what is
    # kept ranks 14, so the body is certified by the rank of all its rows.
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    edges += [e for e in combinations((0, 4, 6, 7, 8), 2) if e != (0, 4)]
    g = SimpleGraph(range(9), edges)
    every = np.ones(9, dtype=bool)
    for seed in range(5):
        p = random_placement(g, EUCLID2, seed)
        vals, ends = frameworks._exact_values(g, p, EUCLID2)
        assert frameworks._peeled_rank(vals, ends, 2, every, g.n_edges - 15)[0] == 14
        assert frameworks._certified_rank(g, p, EUCLID2) == (15, [])
    assert validate_multibody(g, [range(9)], EUCLID2).bodies == (tuple(range(9)),)


def reference_validate(g, bodies, norm):
    """validate_multibody ranking every body whole, as before the peel could
    drop rows: placement_rank at the shared placement, then is_rigid_generic."""
    bs = tuple(tuple(sorted(int(v) for v in b)) for b in bodies)
    problems = bodybar._structure_problems(g, bs)
    if problems:
        raise InputError("; ".join(problems))
    p = random_placement(g, norm, 0)
    for i, b in enumerate(bs):
        part = induced_subgraph(g, b)
        rank = frameworks.placement_rank(part, p, norm)
        if rank == norm.rigid_rank(len(b)):
            frameworks._plane_cross_check(part, norm, True, rank)
        elif not is_rigid_generic(part, norm).rigid:
            problems.append(
                f"body {i} on vertices {list(b)} is not generically rigid for {norm}"
            )
    if problems:
        raise InputError("; ".join(problems))
    owner = {v: i for i, b in enumerate(bs) for v in b}
    return MultiBodyGraph(g, bs, tuple(e for e in g.edges if owner[e[0]] != owner[e[1]]))


def reference_independent(m, norm, seed=0):
    """essentially_independent with every body ranked whole."""
    need = bodybar._independence_threshold(norm)
    n = m.underlying.n_vertices
    if n < need:
        raise InputError(f"needs at least {need} vertices for {norm}, got {n}")
    verdict = is_sparse(m.collapsed, body_bar_count(norm)).sparse
    if n <= bodybar._NUMERIC_CHECK_CAP:
        p = random_placement(m.underlying, norm, seed)
        total = frameworks.placement_rank(m.underlying, p, norm)
        split = len(m.inter_body_edges)
        for part in m.body_subgraphs:
            split += frameworks.placement_rank(part, p, norm)
        if (total == split) != verdict:
            raise InconsistencyError(
                "sparsity and direct-sum rank disagree on essential independence"
            )
    return verdict


def outcome(f, *args):
    try:
        return f(*args)
    except (InputError, InconsistencyError) as exc:
        return type(exc), str(exc)


def seeded_structure(seed):
    """Bodies that are complete graphs less up to four edges (so some are
    flexible), labels, vertex order and edge order shuffled, joined by random
    disjoint bars."""
    rng = random.Random(seed)
    norms = (EUCLID2, CUBIC2, EUCLID3, CUBIC3, NormSpec(2, 4), NormSpec(3, 4), NormSpec(2, 2.5))
    norm = rng.choice(norms)
    base = norm.d + 1 if norm.euclidean else 2 * norm.d
    sizes = [rng.randint(base - 1, base + 3) for _ in range(rng.randint(1, 4))]
    labels = rng.sample(range(4 * sum(sizes)), sum(sizes))
    bodies = [labels[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(len(sizes))]
    edges = []
    for b in bodies:
        within = list(combinations(b, 2))
        for _ in range(min(rng.choice((0, 0, 1, 2, 4)), len(within))):
            within.pop(rng.randrange(len(within)))
        edges += within
    free = [list(b) for b in bodies]
    for _ in range(rng.randint(0, 6) if len(bodies) > 1 else 0):
        i, j = rng.sample(range(len(bodies)), 2)
        if free[i] and free[j]:
            edges.append((free[i].pop(), free[j].pop()))
    rng.shuffle(edges)
    rng.shuffle(labels)
    return SimpleGraph(labels, edges), bodies, norm


def test_validation_matches_whole_body_ranks():
    # 330 structures; q = 2.5 has no exact rank, so it takes the old route.
    flexible = 0
    for seed in range(330):
        g, bodies, norm = seeded_structure(seed)
        got = outcome(validate_multibody, g, bodies, norm)
        assert got == outcome(reference_validate, g, bodies, norm)
        if isinstance(got, MultiBodyGraph):
            assert outcome(essentially_independent, got, norm, seed) == outcome(
                reference_independent, got, norm, seed
            )
        else:
            flexible += 1
    assert 30 < flexible < 300


@pytest.mark.parametrize("idx", range(24))
def test_collapsed_count_matches_numeric_rank(idx):
    norm = (EUCLID2, CUBIC2, EUCLID3, CUBIC3)[idx % 4]
    m = random_multibody(2 + idx % 4, norm, seed=100 + idx)
    verdict = tay_decide(m, norm, seed=idx)
    assert verdict.cross_checked
    assert verdict.rigid == is_rigid_generic(m.underlying, norm, seed=idx + 1).rigid


# ---- spanning tree decomposition -----------------------------------------


def test_complete_four_splits_into_two_trees():
    k4 = MultiGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    trees = nash_williams_trees(k4, 2)
    assert len(trees) == 2
    for t in trees:
        assert t.n_edges == 3
        assert is_sparse(t, SparsityCount(1, 1)).tight
    assert sorted(trees[0].edges + trees[1].edges) == sorted(k4.edges)


def test_parallel_bundle_one_edge_per_tree():
    gb = MultiGraph([0, 1], [(0, 1)] * 3)
    trees = nash_williams_trees(gb, 3)
    assert all(t.n_edges == 1 for t in trees)


def test_tight_triangle_with_doubled_pair_gives_paths():
    gb = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2), (0, 2)])
    trees = nash_williams_trees(gb, 2)
    for t in trees:
        assert t.n_edges == 2
        assert is_sparse(t, SparsityCount(1, 1)).tight
        # a doubled pair inside one tree would be a cycle
        assert t.multiplicity(0, 1) <= 1


def test_fully_doubled_triangle_is_not_tight():
    gb = MultiGraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
    with pytest.raises(InputError, match="tight"):
        nash_williams_trees(gb, 2)


def test_sparse_but_loose_rejected():
    k4 = MultiGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    with pytest.raises(InputError, match="tight"):
        nash_williams_trees(k4, 3)


@pytest.mark.parametrize("seed", range(60))
def test_tree_partition_properties(seed):
    # n runs from 2 to 40 while d cycles through 1 to 6, ending at (40, 6).
    n, d = 2 + seed * 38 // 59, 1 + seed % 6
    gb = random_tight_multigraph(n, d, seed + 50)
    layers = spanning_tree_layers(gb, d)
    assert len(layers) == gb.n_edges
    # Each layer is a spanning tree by a union-find kept here, apart from
    # the library's own audit.
    for i in range(d):
        comp = {v: v for v in gb.vertices}

        def find(a):
            while comp[a] != a:
                a = comp[a]
            return a

        tree = [e for e, lay in zip(gb.edges, layers) if lay == i]
        assert len(tree) == n - 1
        for a, b in tree:
            ra, rb = find(a), find(b)
            assert ra != rb, f"layer {i} closes a cycle at {(a, b)}"
            comp[ra] = rb
    trees = nash_williams_trees(gb, d)
    assert sorted(e for t in trees for e in t.edges) == sorted(gb.edges)
    for t in trees:
        assert t.n_edges == n - 1
        assert is_sparse(t, SparsityCount(1, 1)).tight
    # One edge short or one parallel edge over is not tight.
    for bad in (gb.edges[1:], gb.edges + gb.edges[:1]):
        with pytest.raises(InputError, match="tight"):
            spanning_tree_layers(MultiGraph(gb.vertices, bad), d)


def test_layers_hold_each_forest_in_a_one_one_pebble_game(monkeypatch):
    counts = []
    init = bodybar.PebbleGame.__init__

    def record(self, vertices, count):
        counts.append((count.k, count.l))
        init(self, vertices, count)

    monkeypatch.setattr(bodybar.PebbleGame, "__init__", record)
    for d in (1, 3, 6):
        counts.clear()
        spanning_tree_layers(random_tight_multigraph(12, d, d), d)
        # one more game, of count (d, d), is the tightness precheck
        assert Counter(counts) == Counter({(1, 1): d}) + Counter({(d, d): 1})


def test_a_refused_move_raises_algorithm_error(monkeypatch):
    insert = bodybar.PebbleGame.insert
    # The (3, 3) tightness precheck plays on; every (1, 1) forest refuses.
    monkeypatch.setattr(
        bodybar.PebbleGame,
        "insert",
        lambda self, u, w: self.l != 1 and insert(self, u, w),
    )
    with pytest.raises(AlgorithmError, match="onto a cycle"):
        spanning_tree_layers(random_tight_multigraph(6, 3, 0), 3)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_layers_match_the_label_game(monkeypatch, d):
    # The positional forests move every pebble as the label-dict game does,
    # so each edge lands in the same tree; labels are shuffled and sparse.
    rng = random.Random(d)
    cases = []
    for n in (2, 5, 12, 30):
        gb = random_tight_multigraph(n, d, 40 * d + n)
        lab = dict(zip(gb.vertices, rng.sample(range(5, 500), n)))
        cases.append(MultiGraph(lab.values(), [(lab[a], lab[b]) for a, b in gb.edges]))
    got = [spanning_tree_layers(gb, d) for gb in cases]
    monkeypatch.setattr(bodybar, "PebbleGame", LabelPebbleGame)
    assert [spanning_tree_layers(gb, d) for gb in cases] == got


@pytest.mark.parametrize("norm", [CUBIC2, CUBIC3], ids=str)
def test_special_placement_matches_the_label_game(monkeypatch, norm):
    m = realize_bodybar(random_tight_multigraph(6, norm.d, seed=7), norm)
    got = special_placement(m, norm, seed=3)
    monkeypatch.setattr(bodybar, "PebbleGame", LabelPebbleGame)
    want = special_placement(m, norm, seed=3)
    assert got == want
    assert got.placement.coords == want.placement.coords


# ---- constructed placements ----------------------------------------------


def test_special_placement_two_bodies_cubic_space():
    g, bodies = build((6, 6), [(0, 6), (1, 7), (2, 8)])
    m = validate_multibody(g, bodies, CUBIC3)
    res = special_placement(m, CUBIC3, eps=1e-2, seed=2)
    assert res.report.nullity == 3
    assert res.report.flex_dim == 0
    assert res.eps <= 1e-2


def test_special_placement_plane():
    g, bodies = build((4, 4), [(0, 4), (1, 5)])
    m = validate_multibody(g, bodies, CUBIC2)
    res = special_placement(m, CUBIC2, seed=5)
    assert res.report.nullity == 2


def test_zero_eps_is_not_a_placement():
    g, bodies = build((4, 4), [(0, 4), (1, 5)])
    m = validate_multibody(g, bodies, CUBIC2)
    with pytest.raises(InputError, match="eps"):
        special_placement(m, CUBIC2, eps=0.0)


def test_no_euclidean_construction():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, EUCLID2)
    with pytest.raises(InputError, match="non-Euclidean"):
        special_placement(m, EUCLID2)


def test_loose_collapse_rejected():
    g, bodies = build((6, 6), [(0, 6)])
    m = validate_multibody(g, bodies, CUBIC3)
    with pytest.raises(InputError, match="tight"):
        special_placement(m, CUBIC3)


def test_special_placement_model_geometry():
    m = chain_multibody(3, 5, 2, CUBIC2)
    res = special_placement(m, CUBIC2, seed=1)
    assert len(res.layers) == 4
    assert set(res.layers) <= {0, 1}
    for body in res.model.bodies:
        pts = [res.placement[v] for v in body]
        assert len(set(pts)) == len(pts)
    for v, w in res.model.inter_body_edges:
        diff = [a - b for a, b in zip(res.placement[v], res.placement[w])]
        assert sum(1 for x in diff if x != 0.0) == 1


def test_special_placement_places_the_given_structure():
    # Labels far from 0..n-1, so a placement of any other model would show.
    base = chain_multibody(3, 5, 2, CUBIC2)
    lab = {v: 10 * v + 3 for v in base.underlying.vertices}
    m = MultiBodyGraph(
        SimpleGraph(lab.values(), [(lab[v], lab[w]) for v, w in base.underlying.edges]),
        [[lab[v] for v in b] for b in base.bodies],
        [(lab[v], lab[w]) for v, w in base.inter_body_edges],
    )
    res = special_placement(m, CUBIC2, seed=1)
    assert res.model == m
    assert list(res.placement.coords) == list(m.underlying.vertices)
    for (v, w), layer in zip(m.inter_body_edges, res.layers):
        diff = np.subtract(res.placement[w], res.placement[v])
        assert diff[layer] == pytest.approx(res.eps)
        assert np.count_nonzero(diff) == 1
    # The points are random_placement's draw, each bar's far end shifted.
    drawn = random_placement(m.underlying, CUBIC2, 1)
    want = dict(drawn.coords)
    for (v, w), layer in zip(m.inter_body_edges, res.layers):
        want[w] = tuple(x + res.eps * (i == layer) for i, x in enumerate(drawn[v]))
    assert res.placement.coords == want


def test_special_placement_needs_rigid_bodies():
    # Triangles are flexible in 3-space; MultiBodyGraph does not check the
    # bodies, so the certified rank falls short.
    g, bodies = build((3, 3), [(0, 3), (1, 4), (2, 5)])
    m = MultiBodyGraph(g, bodies, [(0, 3), (1, 4), (2, 5)])
    with pytest.raises(PlacementError, match="must be generically rigid"):
        special_placement(m, CUBIC3)


@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_special_placement_refuses_a_bad_seed(seed):
    g, bodies = build((4, 4), [(0, 4), (1, 5)])
    m = validate_multibody(g, bodies, CUBIC2)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        special_placement(m, CUBIC2, seed=seed)


@pytest.mark.parametrize("case", range(8))
def test_special_placement_kernel_is_translations(case):
    d = 2 if case % 2 == 0 else 3
    norm = NormSpec(d, 3 if case < 4 else 2.5)
    gb = random_tight_multigraph(2 + case % 3, d, seed=300 + case)
    m = realize_bodybar(gb, norm)
    res = special_placement(m, norm, seed=case)
    assert res.report.nullity == d


@pytest.mark.parametrize(
    "norm,n_bodies,seed", [(CUBIC2, 10, 0), (CUBIC3, 8, 0)], ids=["d2-10", "d3-8"]
)
def test_special_placement_at_scale(norm, n_bodies, seed):
    # Tree unions with 18 and 21 bars, placed on their own 43 and 52
    # vertices.
    d = norm.d
    m = realize_bodybar(random_tight_multigraph(n_bodies, d, seed=seed), norm)
    assert len(m.inter_body_edges) == d * (n_bodies - 1)
    res = special_placement(m, norm, seed=seed)
    assert res.eps == 1e-2
    assert res.report.nullity == d and res.report.flex_dim == 0
    # The float singular values agree, with a clear gap after the rank.
    g = res.model.underlying
    s = np.linalg.svd(rigidity_matrix(g, res.placement, norm), compute_uv=False)
    rank = d * g.n_vertices - d
    assert s[rank - 1] > 1e6 * s[rank]


# ---- essential independence ----------------------------------------------


def test_tight_bar_set_is_independent():
    g, bodies = build((4, 4), [(0, 4), (1, 5)])
    m = validate_multibody(g, bodies, CUBIC2)
    assert essentially_independent(m, CUBIC2)


def test_extra_bar_breaks_independence():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, CUBIC2)
    assert not essentially_independent(m, CUBIC2)


def test_euclidean_plane_allows_three_bars():
    g, bodies = build((4, 4), [(0, 4), (1, 5), (2, 6)])
    m = validate_multibody(g, bodies, EUCLID2)
    assert essentially_independent(m, EUCLID2)
    g4, bodies4 = build((4, 4), [(0, 4), (1, 5), (2, 6), (3, 7)])
    m4 = validate_multibody(g4, bodies4, EUCLID2)
    assert not essentially_independent(m4, EUCLID2)


def test_independence_threshold_enforced():
    g, bodies = build((4, 4), [(0, 4)])
    m = validate_multibody(g, bodies, EUCLID3)
    with pytest.raises(InputError, match="at least 12"):
        essentially_independent(m, EUCLID3)


@pytest.mark.parametrize("idx", range(12))
def test_independence_agrees_with_rank_split(idx):
    norm = (EUCLID2, CUBIC2, EUCLID3, CUBIC3)[idx % 4]
    m = random_multibody(4, norm, seed=400 + idx)
    expected = is_sparse(m.collapsed, body_bar_count(norm)).sparse
    assert essentially_independent(m, norm, seed=idx) == expected


# ---- relative rigidity and containers ------------------------------------


def test_pinning_the_ends_of_a_braced_chain():
    m = chain_multibody(3, 4, 2, CUBIC2)
    ends = induced_multibody(m, (0, 2))
    assert relative_rigidity(m.underlying, ends.underlying, CUBIC2).relatively_rigid
    container = rigid_container_multibody(m, ends, CUBIC2)
    assert container is not None
    assert tay_decide(container, CUBIC2).rigid


def test_starved_chain_pair_is_not_relatively_rigid():
    m = chain_multibody(3, 4, 1, CUBIC2)
    front = induced_multibody(m, (0, 1))
    verdict = relative_rigidity(m.underlying, front.underlying, CUBIC2)
    assert not verdict.relatively_rigid
    assert verdict.witness_flex is not None
    assert rigid_container_multibody(m, front, CUBIC2) is None


def test_single_body_anchor_in_a_flexible_host():
    m = chain_multibody(3, 4, 1, CUBIC2)
    one = induced_multibody(m, (0,))
    assert relative_rigidity(m.underlying, one.underlying, CUBIC2).relatively_rigid
    container = rigid_container_multibody(m, one, CUBIC2)
    assert container is not None
    assert container.n_bodies == 1
    assert is_rigid_generic(container.underlying, CUBIC2).rigid


def test_foreign_body_rejected():
    m = chain_multibody(3, 4, 2, CUBIC2)
    odd = MultiBodyGraph(
        SimpleGraph(range(5), [(a, b) for a in range(5) for b in range(a + 1, 5)]),
        [tuple(range(5))],
        [],
    )
    with pytest.raises(InputError, match="not a sub-structure of the host"):
        rigid_container_multibody(m, odd, CUBIC2)


def test_undersized_anchor_rejected():
    m = chain_multibody(3, 4, 2, EUCLID3)
    pair = induced_multibody(m, (0, 1))
    with pytest.raises(InputError, match="at least 12"):
        rigid_container_multibody(m, pair, EUCLID3)


@pytest.mark.parametrize("idx", range(28))
def test_container_matches_relative_rigidity(idx):
    if idx < 10:
        norm, n_bodies = EUCLID2, 3 + idx % 3
    elif idx < 20:
        norm, n_bodies = CUBIC2, 3 + idx % 3
    elif idx < 24:
        norm, n_bodies = EUCLID3, 3
    else:
        norm, n_bodies = MID3, 3 + idx % 2
    m = random_multibody(n_bodies, norm, seed=900 + 13 * idx)
    rng = random.Random(idx)
    ids = tuple(sorted(rng.sample(range(m.n_bodies), 2)))
    h = induced_multibody(m, ids)
    verdict = relative_rigidity(m.underlying, h.underlying, norm, seed=idx)
    container = rigid_container_multibody(m, h, norm)
    assert verdict.relatively_rigid == (container is not None)
    if container is not None:
        assert {frozenset(b) for b in h.bodies} <= {
            frozenset(b) for b in container.bodies
        }
        assert set(h.inter_body_edges) <= set(container.inter_body_edges)
        assert container.underlying.is_subgraph_of(m.underlying)
        if container.n_bodies >= 2:
            assert tay_decide(container, norm, seed=idx + 1).rigid
        else:
            assert is_rigid_generic(container.underlying, norm).rigid


def _many_anchor_case(idx):
    """A tight body-and-bar host, or one with a few bars cut, and 8 to 12 of
    its bodies with the bars among them."""
    rng = random.Random(idx)
    norm = (NormSpec(2, 2), NormSpec(2, 3), NormSpec(3, 3))[idx % 3]
    gb = random_tight_multigraph(rng.randint(12, 30), body_bar_count(norm).k, idx)
    edges = list(gb.edges)
    for _ in range(idx % 3):
        edges.pop(rng.randrange(len(edges)))
    m = realize_bodybar(MultiGraph(gb.vertices, edges), norm)
    ids = tuple(sorted(rng.sample(range(m.n_bodies), rng.randint(8, 12))))
    return m, induced_multibody(m, ids), norm


def _laid_out_multibody(c):
    if c is None:
        return None
    return c.underlying.vertices, c.underlying.edges, c.bodies, c.inter_body_edges


def test_multibody_container_skip_keeps_the_unskipped_container():
    outcomes = set()
    for idx in range(36):
        m, h, norm = _many_anchor_case(idx)
        got = rigid_container_multibody(m, h, norm)
        want = unskipped_rigid_container_multibody(m, h, norm)
        assert _laid_out_multibody(got) == _laid_out_multibody(want)
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(3))
def test_multibody_container_skips_pairs_an_earlier_closure_covers(monkeypatch, seed):
    # 40 bodies joined along three spanning trees in cubic 3-space, with 8
    # anchor bodies: one blocker per pair is 28 calls.
    norm = NormSpec(3, 3)
    m = realize_bodybar(random_tight_multigraph(40, 3, seed), norm)
    h = induced_multibody(m, sorted(random.Random(seed).sample(range(40), 8)))
    calls = []
    real = PebbleGame.blocker

    def blocker(game, a, b):
        calls.append((a, b))
        return real(game, a, b)

    monkeypatch.setattr(PebbleGame, "blocker", blocker)
    want = unskipped_rigid_container_multibody(m, h, norm)
    assert len(calls) == 28
    calls.clear()
    got = rigid_container_multibody(m, h, norm)
    assert _laid_out_multibody(got) == _laid_out_multibody(want)
    assert 0 < len(calls) < 28


# ---- staged certification ------------------------------------------------


def _prefix_tower(full, counts, target=None):
    stages = [induced_multibody(full, tuple(range(j))) for j in counts]
    return MultiBodyTower(stages, target)


def test_growing_chain_is_minimally_rigid():
    full = chain_multibody(4, 4, 2, CUBIC2)
    verdict = bodybar_tower_decide(_prefix_tower(full, (2, 3, 4)), CUBIC2)
    assert verdict.status == BODYBAR_TOWER_MINIMAL
    assert len(verdict.tight_witness) == 3
    for small, large in zip(verdict.tight_witness, verdict.tight_witness[1:]):
        assert not (Counter(small.edges) - Counter(large.edges))


def test_redundant_bar_is_rigid_but_not_minimal():
    full = chain_multibody(4, 5, 2, CUBIC2, extra=[(2, 7)])
    verdict = bodybar_tower_decide(_prefix_tower(full, (2, 3, 4)), CUBIC2)
    assert verdict.status == LAMAN_TOWER_RIGID
    last = verdict.tight_witness[-1]
    assert last.n_edges == 6  # one junction bar spared


def test_starved_junctions_stay_uncertified():
    full = chain_multibody(3, 4, 1, CUBIC2)
    verdict = bodybar_tower_decide(_prefix_tower(full, (2, 3)), CUBIC2)
    assert verdict.status == LAMAN_TOWER_NOT


def test_euclidean_chain_tower():
    full = chain_multibody(3, 6, 3, EUCLID2)
    verdict = bodybar_tower_decide(_prefix_tower(full, (2, 3)), EUCLID2)
    assert verdict.status == BODYBAR_TOWER_MINIMAL


def test_space_chain_tower():
    full = chain_multibody(3, 6, 3, CUBIC3)
    verdict = bodybar_tower_decide(_prefix_tower(full, (2, 3)), CUBIC3)
    assert verdict.status == BODYBAR_TOWER_MINIMAL


def test_stage_order_enforced():
    full = chain_multibody(3, 4, 2, CUBIC2)
    with pytest.raises(NestingError):
        bodybar_tower_decide(
            MultiBodyTower(
                [induced_multibody(full, (0, 1)), induced_multibody(full, (0, 2))]
            ),
            CUBIC2,
        )


def _split_body_stages():
    """A K4 body, then a second body joined to it by two bars, then the same
    graph with the second body cut in two along a matching."""
    k4 = list(combinations(range(4), 2))
    halves = [(4, 5), (4, 8), (5, 8), (6, 7), (6, 9), (7, 9)]
    bars = [(0, 8), (1, 9)]
    g = SimpleGraph(range(10), k4 + halves + [(4, 6), (5, 7)] + bars)
    first = MultiBodyGraph(SimpleGraph(range(4), k4), [range(4)], [])
    whole = MultiBodyGraph(g, [range(4), range(4, 10)], bars)
    split = MultiBodyGraph(g, [range(4), (4, 5, 8), (6, 7, 9)], bars + [(4, 6), (5, 7)])
    return first, whole, split


def test_stage_that_splits_a_body_is_not_nested():
    first, whole, split = _split_body_stages()
    assert split.underlying == whole.underlying
    validate_tower(MultiBodyTower([first, whole], target=whole))
    with pytest.raises(NestingError, match="stage 2 does not contain stage 1") as err:
        bodybar_tower_decide(MultiBodyTower([first, whole, split]), CUBIC2)
    assert err.value.index == 2


def test_target_missing_a_body_of_the_final_stage_is_not_nested():
    first, whole, split = _split_body_stages()
    with pytest.raises(NestingError, match="not contained in the target") as err:
        bodybar_tower_decide(MultiBodyTower([first, whole], target=split), CUBIC2)
    assert err.value.index == 1


def _late_pinning_tower():
    # The middle stage starves a body, the final stage pins it, so the tight
    # extraction fails yet consecutive containers still certify.
    g1, bodies1 = build((4, 4), [(0, 4), (1, 5)])
    g2, bodies2 = build((4, 4, 4), [(0, 4), (1, 5), (6, 8)])
    g3, bodies3 = build((4, 4, 4), [(0, 4), (1, 5), (6, 8), (3, 9)])
    return MultiBodyTower(
        [
            validate_multibody(g1, bodies1, CUBIC2),
            validate_multibody(g2, bodies2, CUBIC2),
            validate_multibody(g3, bodies3, CUBIC2),
        ]
    )


def test_fallback_certifies_late_pinning():
    verdict = bodybar_tower_decide(_late_pinning_tower(), CUBIC2)
    assert verdict.status == LAMAN_TOWER_RIGID
    assert verdict.tight_witness is None
    assert len(verdict.container_witness) == 2


def test_missing_container_is_confirmed_at_the_final_placement(monkeypatch):
    # A pair whose container is missing is confirmed at the final stage's
    # placement, drawn once at the caller's seed: here it is relatively
    # rigid, so the missing container is an inconsistency.
    t = _late_pinning_tower()
    placed = []
    real = frameworks.random_placement

    def placement(g, norm, seed):
        placed.append((g.vertices, seed))
        return real(g, norm, seed)

    def container(g, h, norm):
        return None if h == t.stages[1] else rigid_container_multibody(g, h, norm)

    monkeypatch.setattr(frameworks, "random_placement", placement)
    monkeypatch.setattr(bodybar, "rigid_container_multibody", container)
    with pytest.raises(InconsistencyError, match="stage 2"):
        bodybar_tower_decide(t, CUBIC2, seed=7)
    assert placed == [(t.stages[-1].underlying.vertices, 7)]


def test_dangling_floppy_body_is_not_waved_through():
    g1, bodies1 = build((4, 4), [(0, 4), (1, 5)])
    g2, bodies2 = build((4, 4, 4), [(0, 4), (1, 5), (6, 8)])
    stages = [
        validate_multibody(g1, bodies1, CUBIC2),
        validate_multibody(g2, bodies2, CUBIC2),
    ]
    verdict = bodybar_tower_decide(MultiBodyTower(stages), CUBIC2)
    assert verdict.status == LAMAN_TOWER_NOT


def test_unreached_target_blocks_certification():
    full = chain_multibody(4, 4, 2, CUBIC2)
    tower = _prefix_tower(full, (2, 3), target=full)
    verdict = bodybar_tower_decide(tower, CUBIC2)
    assert verdict.status == LAMAN_TOWER_NOT
    assert verdict.tight_witness is not None


def test_single_stage_tower_decides_directly():
    rigid = chain_multibody(2, 4, 2, CUBIC2)
    verdict = bodybar_tower_decide(MultiBodyTower([rigid]), CUBIC2)
    assert verdict.status == BODYBAR_TOWER_MINIMAL
    loose = chain_multibody(2, 4, 1, CUBIC2)
    assert (
        bodybar_tower_decide(MultiBodyTower([loose]), CUBIC2).status
        == LAMAN_TOWER_NOT
    )


# ---- the staged decision against a reference loop ------------------------

# A reference copy of the multi-body decision written out on its own: a
# nested-witness loop on the collapsed multigraphs, then a container loop
# over consecutive pairs.  It also names the route that decided.


def _bodybar_reference(t, norm, seed, confirm):
    count = body_bar_count(norm)
    host = t.target if t.target is not None else t.stages[-1]
    ref = labeled_body_bar(host)
    witness = seeded_tight_witnesses([labeled_body_bar(s) for s in t.stages], count)
    if witness is not None:
        if set(witness[-1].vertices) != set(ref.vertices):
            return (LAMAN_TOWER_NOT, tuple(witness), None), "tight"
        minimal = sorted(witness[-1].edges) == sorted(ref.edges)
        status = BODYBAR_TOWER_MINIMAL if minimal else LAMAN_TOWER_RIGID
        return (status, tuple(witness), None), "tight"
    if t.depth == 1:
        return (LAMAN_TOWER_NOT, None, None), "single"
    containers = []
    for i in range(t.depth - 1):
        small, large = t.stages[i], t.stages[i + 1]
        try:
            c = rigid_container_multibody(large, small, norm)
        except InputError:
            return (LAMAN_TOWER_NOT, None, None), "undersized"
        if c is None:
            p = random_placement(t.stages[-1].underlying, norm, seed)
            check = confirm(large.underlying, small.underlying, p, norm)
            if check.relatively_rigid:
                raise InconsistencyError("relatively rigid but no container found")
            return (LAMAN_TOWER_NOT, None, None), "missing"
        containers.append(c)
    covered = {frozenset(b) for c in containers for b in c.bodies}
    ref_bodies = {frozenset(b) for b in host.bodies}
    if covered != ref_bodies:
        return (LAMAN_TOWER_NOT, None, tuple(containers)), "short"
    return (LAMAN_TOWER_RIGID, None, tuple(containers)), "containers"


def _random_multibody_tower(idx):
    """Stages of a random structure by seeded arrival times of bodies and
    bars; a body or bar arriving at the depth is only in the whole
    structure, which some towers declare as their target."""
    rng = random.Random(idx)
    norm = (EUCLID2, CUBIC2, CUBIC3, EUCLID3)[idx % 4]
    full = random_multibody(rng.randint(2, 5 if norm.d == 2 else 4), norm, seed=idx)
    depth = rng.randint(1, 4)
    late = depth if rng.random() < 0.3 else depth - 1
    when = {b: rng.randint(0, late) for b in full.bodies}
    when[full.bodies[0]] = 0
    owner = full.body_of
    for e in full.inter_body_edges:
        ends = full.bodies[owner[e[0]]], full.bodies[owner[e[1]]]
        when[e] = max(when[ends[0]], when[ends[1]], rng.randint(0, late))
    stages = []
    for k in range(depth):
        bodies = [b for b in full.bodies if when[b] <= k]
        keep = {v for b in bodies for v in b}
        bars = [e for e in full.inter_body_edges if when[e] <= k]
        edges = [
            e
            for e in full.underlying.edges
            if e in bars or (e[0] in keep and owner[e[0]] == owner[e[1]])
        ]
        vs = [v for v in full.underlying.vertices if v in keep]
        stages.append(MultiBodyGraph(SimpleGraph(vs, edges), bodies, bars))
    target = (None, stages[-1], full)[rng.randrange(3)]
    return MultiBodyTower(stages, target), norm


def _verdict_fields(status, tight, containers):
    return (
        status,
        None if tight is None else [(w.vertices, w.edges) for w in tight],
        None
        if containers is None
        else [
            (c.underlying.vertices, c.underlying.edges, c.bodies, c.inter_body_edges)
            for c in containers
        ],
    )


def test_bodybar_decision_matches_reference_loop(monkeypatch):
    calls = {"new": [], "ref": []}
    real = towers._relative_at

    def recorder(log):
        def confirm(g, h, p, norm):
            calls[log].append((g.vertices, g.edges, h.vertices, h.edges, p))
            return real(g, h, p, norm)

        return confirm

    monkeypatch.setattr(towers, "_relative_at", recorder("new"))
    routes = Counter()
    for idx in range(240):
        t, norm = _random_multibody_tower(idx)
        v = bodybar_tower_decide(t, norm, seed=idx)
        want, route = _bodybar_reference(t, norm, idx, recorder("ref"))
        got = (v.status, v.tight_witness, v.container_witness)
        assert _verdict_fields(*got) == _verdict_fields(*want), idx
        routes[route, v.status, t.target is None] += 1
    # both routes with every outcome, undersized anchors, declared targets
    assert {r for r, *_ in routes} == {
        "tight", "single", "missing", "undersized", "short", "containers"
    }
    assert {s for r, s, _ in routes if r == "tight"} == {
        LAMAN_TOWER_NOT, LAMAN_TOWER_RIGID, BODYBAR_TOWER_MINIMAL
    }
    assert {none for *_, none in routes} == {True, False}
    assert calls["new"] == calls["ref"]
    assert calls["new"]


def _parallel_bar_tower(idx):
    """Nested stages of complete bodies in which later stages add bars
    parallel to bars already present.

    Body i arrives with body_bar_count(norm).k bars to earlier bodies, so
    every stage has a tight collapsed subgraph; some stages also add one
    more bar between a pair of bodies that a bar already joins.  Each stage
    lists its edges in its own shuffled order."""
    rng = random.Random(idx)
    norm = (CUBIC2, EUCLID2, CUBIC3)[idx % 3]
    k = body_bar_count(norm).k
    depth = rng.randint(2, 4)
    arrive = [0]
    for _ in range(rng.randint(1, 3)):
        arrive.append(min(depth - 1, arrive[-1] + rng.randrange(2)))
    plan = []  # (body pair, stage of arrival)
    for i in range(1, len(arrive)):
        plan += [((rng.randrange(i), i), arrive[i]) for _ in range(k)]
    for s in range(1, depth):
        if rng.random() < 0.7:
            pair, _ = rng.choice([p for p in plan if p[1] < s] or plan)
            plan.append((pair, max(s, arrive[pair[1]])))
    degree = Counter(b for pair, _ in plan for b in pair)
    base = norm.d + 1 if norm.euclidean else 2 * norm.d
    sizes = [max(base, degree[i]) for i in range(len(arrive))]
    g, bodies = build(sizes, ())
    free = [list(b) for b in bodies]
    bars = [((free[a].pop(), free[b].pop()), s) for (a, b), s in plan]
    stages = []
    for s in range(depth):
        here = [b for b, at in zip(bodies, arrive) if at <= s]
        keep = {v for b in here for v in b}
        es = [e for e in g.edges if e[0] in keep] + [e for e, at in bars if at <= s]
        rng.shuffle(es)
        stages.append(
            MultiBodyGraph(SimpleGraph(sorted(keep), es), here, [e for e, at in bars if at <= s])
        )
    return MultiBodyTower(stages, (None, stages[-1])[rng.randrange(2)]), norm


def test_bodybar_stages_adding_parallel_bars_match_reference_loop():
    parallel_later = 0
    for idx in range(90):
        t, norm = _parallel_bar_tower(idx)
        v = bodybar_tower_decide(t, norm, seed=idx)
        want, route = _bodybar_reference(t, norm, idx, towers._relative_at)
        got = (v.status, v.tight_witness, v.container_witness)
        assert _verdict_fields(*got) == _verdict_fields(*want), idx
        assert route == "tight"
        collapsed = [labeled_body_bar(s) for s in t.stages]
        for small, large in zip(collapsed, collapsed[1:]):
            added = Counter(large.edges) - Counter(small.edges)
            parallel_later += any(e in small.edges for e in added)
    assert parallel_later > 30
