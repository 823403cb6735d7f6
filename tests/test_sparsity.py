import random
from itertools import combinations

import pytest

from helpers import grow_tight_graph, random_graph
from rigidkit.bodybar import (
    MultiBodyGraph,
    body_bar_count,
    rigid_container_multibody,
)
from rigidkit.errors import InputError, UnsupportedCountError
from rigidkit.frameworks import NormSpec
from rigidkit.graphs import (
    MultiGraph,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    graph_union,
    induced_subgraph,
)
from rigidkit.moves import inverse_candidates
from rigidkit.sparsity import (
    LAMAN,
    QNORM_2D,
    PebbleGame,
    SparsityCount,
    SparsityReport,
    augment_to_tight,
    brute_force_sparse,
    is_sparse,
    tight_spanning_subgraph,
)
from rigidkit.towers import rigid_container_2d

K4 = complete_graph(4)
TREE = SimpleGraph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])


def basis_graph(g, count):
    """g on its own vertices with the edges of its greedy basis."""
    return type(g)(g.vertices, tuple(g.edges[i] for i in PebbleGame.over(g, count).accepted))


def count_holds(g, count):
    m = sum(
        1 for e in g.edges if e[0] in g.vertex_set and e[1] in g.vertex_set
    )
    return m <= count.target(g.n_vertices)


# ---- counts ---------------------------------------------------------------


def test_count_validation():
    assert SparsityCount(3, 5).target(4) == 7
    assert str(SparsityCount(2, 3)) == "(2,3)"
    with pytest.raises(UnsupportedCountError):
        SparsityCount(0, 0)
    with pytest.raises(UnsupportedCountError):
        SparsityCount(2, 4)
    with pytest.raises(UnsupportedCountError):
        SparsityCount(2, -1)


@pytest.mark.parametrize("text", ["2,3", " 2,3".strip()])
def test_count_parse(text):
    assert SparsityCount.parse(text) == LAMAN


@pytest.mark.parametrize("text", ["2", "2,3,4", "a,b", "2;3"])
def test_count_parse_rejects(text):
    with pytest.raises(UnsupportedCountError):
        SparsityCount.parse(text)


def test_module_constants():
    assert LAMAN == SparsityCount(2, 3)
    assert QNORM_2D == SparsityCount(2, 2)


# ---- pebble game ----------------------------------------------------------


def test_k4_breaks_laman_count():
    rep = is_sparse(K4, LAMAN)
    assert not rep.sparse and not rep.tight
    w = rep.witness
    assert w.n_edges > LAMAN.target(w.n_vertices)


def test_k4_is_qnorm_tight():
    assert is_sparse(K4, QNORM_2D) == SparsityReport(sparse=True, tight=True)


def test_report_equality_ignores_witness():
    assert is_sparse(K4, LAMAN) == SparsityReport(sparse=False, tight=False)


def test_tree_counts():
    one_one = SparsityCount(1, 1)
    assert is_sparse(TREE, one_one).tight
    assert not is_sparse(cycle_graph(5), one_one).sparse
    assert is_sparse(cycle_graph(5), SparsityCount(1, 0)).tight


def test_two_triangles_sharing_a_vertex():
    g = SimpleGraph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    rep = is_sparse(g, LAMAN)
    assert rep.sparse and not rep.tight


def test_disconnected_graph_is_checked_per_component():
    g = SimpleGraph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert is_sparse(g, LAMAN).sparse
    # the union misses the global count, so tight must be False
    assert not is_sparse(g, LAMAN).tight


def test_grown_graphs_are_tight():
    for seed in range(5):
        g = grow_tight_graph("euclidean", 7, seed)
        assert is_sparse(g, LAMAN).tight
        h = grow_tight_graph("qnorm", 7, seed)
        assert is_sparse(h, QNORM_2D).tight


def test_multigraph_counts():
    doubled = MultiGraph((0, 1), ((0, 1), (0, 1), (0, 1)))
    assert is_sparse(doubled, SparsityCount(3, 3)).tight
    assert not is_sparse(doubled, SparsityCount(2, 2)).sparse


def test_multigraph_witness_keeps_parallel_edges():
    g = MultiGraph(range(4), ((0, 1), (2, 3), (0, 1), (1, 2), (0, 1)))
    for rep in (is_sparse(g, QNORM_2D), brute_force_sparse(g, QNORM_2D)):
        assert isinstance(rep.witness, MultiGraph)
        assert rep.witness.vertices == (0, 1)
        assert rep.witness.edges == ((0, 1),) * 3


# ---- brute force cross-check ----------------------------------------------


def test_pebble_agrees_with_enumeration():
    counts = [LAMAN, QNORM_2D, SparsityCount(3, 3)]
    for seed in range(40):
        g = random_graph(4 + seed % 4, 0.55, seed)
        for count in counts:
            assert is_sparse(g, count) == brute_force_sparse(g, count), (
                seed,
                count,
            )


def test_brute_force_size_cap():
    with pytest.raises(InputError, match="capped"):
        brute_force_sparse(complete_graph(13), LAMAN)


# ---- ranks and bases ------------------------------------------------------


def test_rank_of_k4():
    assert len(PebbleGame.over(K4, LAMAN).accepted) == 5
    assert len(PebbleGame.over(K4, QNORM_2D).accepted) == 6


def test_tight_spanning_subgraph():
    t = tight_spanning_subgraph(K4, LAMAN)
    assert t.n_edges == 5
    assert is_sparse(t, LAMAN).tight
    assert set(t.edges) < set(K4.edges)
    # a path on 3 vertices has no Laman completion inside itself
    assert tight_spanning_subgraph(SimpleGraph(range(3), [(0, 1), (1, 2)]), LAMAN) is None
    # parallel edges count: two of the three copies make the pair (2,2)-tight
    g = MultiGraph((0, 1), ((0, 1), (0, 1), (0, 1)))
    t = tight_spanning_subgraph(g, SparsityCount(2, 2))
    assert isinstance(t, MultiGraph)
    assert t.edges == ((0, 1), (0, 1))


def test_greedy_basis_positions():
    assert PebbleGame.over(K4, LAMAN).accepted == [0, 1, 2, 3, 4]
    kept = basis_graph(K4, LAMAN)
    assert kept.n_edges == 5
    assert is_sparse(kept, LAMAN).sparse


# ---- edge admissibility ---------------------------------------------------


def test_blocking_subgraph_detection():
    g = SimpleGraph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    game = PebbleGame.over(g, LAMAN)
    closure = game.blocker(0, 1)
    assert closure == {0, 1}
    blocker = induced_subgraph(g, closure)
    assert blocker.n_edges == LAMAN.target(blocker.n_vertices)
    assert game.blocker(0, 3) is None


def test_augment_reaches_tightness():
    g = SimpleGraph(range(6), [(0, 1), (2, 3)])
    full = augment_to_tight(g, LAMAN)
    assert is_sparse(full, LAMAN).tight
    assert set(g.edges) <= set(full.edges)


def test_augment_fixed_point():
    tri = complete_graph(3)
    assert augment_to_tight(tri, LAMAN).edges == tri.edges


def test_augment_preconditions():
    with pytest.raises(InputError, match="sparse"):
        augment_to_tight(K4, LAMAN)
    with pytest.raises(InputError, match=r"no \(2,3\)-tight graph on 1 vertices"):
        augment_to_tight(SimpleGraph((0,), ()), LAMAN)
    with pytest.raises(InputError, match=r"no \(2,2\)-tight graph on 3 vertices"):
        augment_to_tight(complete_graph(3), QNORM_2D)


@pytest.mark.parametrize(
    "count, n, target",
    [((3, 4), 5, 11), ((2, 1), 2, 3), ((3, 2), 3, 7), ((3, 5), 1, -2)],
    ids=str,
)
def test_augment_rejects_inputs_without_tight_completion(count, n, target):
    # The pass admits every pair and ends at K_n, which is sparse for these
    # counts but short of the target, so no simple tight graph exists on n
    # vertices.  (3,5) on one vertex has a negative target no edge set meets.
    count = SparsityCount(*count)
    assert count.target(n) == target
    with pytest.raises(InputError, match=f"needs {target} edges"):
        augment_to_tight(SimpleGraph(range(n)), count)


def test_augment_multigraph_adds_parallels():
    g = MultiGraph((0, 1), ((0, 1),))
    full = augment_to_tight(g, SparsityCount(3, 3))
    assert full.n_edges == 3
    assert set(full.edges) == {(0, 1)}


# ---- one engine per graph -------------------------------------------------


ENGINE_COUNTS = [LAMAN, QNORM_2D, SparsityCount(3, 3)]


def random_multigraph(n, m, seed):
    rng = random.Random(seed)
    return MultiGraph(range(n), [rng.sample(range(n), 2) for _ in range(m)])


def sparse_samples(count, seeds):
    """Greedy bases of seeded simple graphs and multigraphs on <= 10 vertices."""
    for seed in seeds:
        n = 4 + seed % 7
        yield basis_graph(random_graph(n, 0.6, seed), count)
        yield basis_graph(random_multigraph(n, 3 * n, seed), count)


def minimal_tight_sets(g, count):
    """Pair -> least vertex set containing it whose induced edges meet the
    count, by enumerating every vertex subset; None when there is none."""
    n = g.n_vertices
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    tight = []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 2:
            continue
        m = sum(1 for a, b in g.edges if mask & bit[a] and mask & bit[b])
        if m == count.target(size):
            tight.append(mask)
    out = {}
    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1 :]:
            pair = bit[v] | bit[w]
            found = [t for t in tight if t & pair == pair]
            if not found:
                out[(v, w)] = None
                continue
            least = min(found, key=int.bit_count)
            # tight sets through a pair are closed under intersection
            assert all(t & least == least for t in found)
            out[(v, w)] = {u for u in g.vertices if least & bit[u]}
    return out


@pytest.mark.parametrize("count", ENGINE_COUNTS, ids=str)
def test_blocker_is_the_minimal_tight_set(count):
    for g in sparse_samples(count, range(10)):
        for (v, w), expected in minimal_tight_sets(g, count).items():
            assert PebbleGame.over(g, count).blocker(v, w) == expected, (g, v, w)


@pytest.mark.parametrize("count", ENGINE_COUNTS, ids=str)
def test_engine_answers_ignore_query_history(count):
    for seed, g in enumerate(sparse_samples(count, range(20, 26))):
        pairs = [(v, w) for i, v in enumerate(g.vertices) for w in g.vertices[i + 1 :]]
        fresh = {p: PebbleGame.over(g, count).blocker(*p) for p in pairs}
        game = PebbleGame.over(g, count)
        rng = random.Random(seed)
        for _ in range(3 * len(pairs)):
            p = rng.choice(pairs)
            if rng.random() < 0.5:
                assert game.admits(*p) == (fresh[p] is None)
            else:
                assert game.blocker(*p) == fresh[p]
        assert game.accepted == list(range(g.n_edges))


@pytest.mark.parametrize("count", ENGINE_COUNTS + [SparsityCount(6, 6)], ids=str)
def test_deletions_answer_as_a_fresh_game(count):
    # Random interleavings of insert and delete on simple graphs and on
    # multigraphs; after every few steps the game answers each pair as a
    # fresh game over the edges it holds.
    for seed in range(12):
        rng = random.Random(seed)
        n = 3 + seed % 6
        multi = seed % 2 == 1
        pairs = list(combinations(range(n), 2))
        game = PebbleGame(range(n), count)
        held, kept, offered = [], [], 0
        for step in range(6 * count.k * n):
            if held and rng.random() < 0.35:
                u, w = held.pop(rng.randrange(len(held)))
                game.delete(*((u, w) if rng.random() < 0.5 else (w, u)))
            else:
                e = rng.choice(pairs)
                if not multi and e in held:
                    continue
                if game.insert(*e):
                    held.append(e)
                    kept.append(offered)
                offered += 1
            if step % 5 == 0:
                fresh = PebbleGame.over(MultiGraph(range(n), held), count)
                for p in pairs:
                    assert game.admits(*p) == fresh.admits(*p), (seed, step, p)
                    assert game.blocker(*p) == fresh.blocker(*p), (seed, step, p)
        assert game.accepted == kept


def test_delete_refuses_an_edge_not_held():
    game = PebbleGame(range(4), LAMAN)
    for e in ((0, 1), (0, 2), (1, 2)):
        assert game.insert(*e)
    assert not game.insert(0, 1)
    with pytest.raises(InputError):
        game.delete(0, 3)
    with pytest.raises(InputError):
        game.delete(0, 9)
    game.delete(1, 0)
    with pytest.raises(InputError):
        game.delete(0, 1)
    assert game.admits(0, 1)


# Reference copies of the algorithms that build a fresh game for every query.


def augment_by_restarts(g, count):
    labels = sorted(g.vertices)
    allow_parallel = isinstance(g, MultiGraph)
    cur = g
    while cur.n_edges < count.target(g.n_vertices):
        for i, v in enumerate(labels):
            for w in labels[i + 1 :]:
                if not allow_parallel and (v, w) in cur.edge_set:
                    continue
                if PebbleGame.over(cur, count).admits(v, w):
                    cur = type(cur)(cur.vertices, cur.edges + ((v, w),))
                    break
            else:
                continue
            break
    return cur


def container_per_pair(g, h, q):
    count = LAMAN if q == 2 else QNORM_2D
    thin = basis_graph(g, count)
    container = h
    for v, w in combinations(sorted(h.vertex_set), 2):
        if thin.has_edge(v, w):
            container = graph_union(container, SimpleGraph((v, w), ((v, w),)))
            continue
        closure = PebbleGame.over(thin, count).blocker(v, w)
        if closure is None:
            return None
        container = graph_union(container, induced_subgraph(thin, closure))
    return container


def multibody_container_per_pair(g, h, norm):
    count = body_bar_count(norm)
    keep = PebbleGame.over(g.collapsed, count).accepted
    thin = MultiGraph(g.collapsed.vertices, tuple(g.collapsed.edges[i] for i in keep))
    bar_pos = {e: t for t, e in enumerate(g.inter_body_edges)}
    chosen_bodies = {g.body_index[frozenset(b)] for b in h.bodies}
    chosen_bars = {bar_pos[e] for e in h.inter_body_edges}
    for a, b in combinations(sorted(chosen_bodies), 2):
        inside = PebbleGame.over(thin, count).blocker(a, b)
        if inside is None:
            return None
        chosen_bodies |= inside
        chosen_bars.update(
            keep[pos] for pos, e in enumerate(thin.edges) if e[0] in inside and e[1] in inside
        )
    bodies = tuple(g.bodies[i] for i in sorted(chosen_bodies))
    bars = {g.inter_body_edges[t] for t in chosen_bars}
    keep_vs = {v for b in bodies for v in b}
    owner = g.body_of
    vs = tuple(v for v in g.underlying.vertices if v in keep_vs)
    es = tuple(
        e
        for e in g.underlying.edges
        if e in bars
        or (e[0] in keep_vs and e[1] in keep_vs and owner[e[0]] == owner[e[1]])
    )
    return MultiBodyGraph(SimpleGraph(vs, es), bodies, tuple(sorted(bars)))


def laid_out(g):
    return None if g is None else (g.vertices, g.edges)


@pytest.mark.parametrize("count", ENGINE_COUNTS + [SparsityCount(2, 1)], ids=str)
def test_augment_matches_restart_scan(count):
    for seed in range(12):
        n = 6 + seed % 9
        rng = random.Random(seed)
        for g in (random_graph(n, 0.4, seed), random_multigraph(n, 2 * n, seed)):
            if isinstance(g, SimpleGraph) and 2 * count.k > n:
                continue
            basis = basis_graph(g, count)
            sparse = type(g)(g.vertices, [e for e in basis.edges if rng.random() < 0.6])
            got = augment_to_tight(sparse, count)
            assert laid_out(got) == laid_out(augment_by_restarts(sparse, count))


@pytest.mark.parametrize("q", [2, 3])
def test_container_matches_per_pair_blockers(q):
    mode = "euclidean" if q == 2 else "qnorm"
    for seed in range(15):
        rng = random.Random(seed)
        g = grow_tight_graph(mode, 14 + seed, seed)
        extra = [(a, b) for a, b in combinations(g.vertices, 2) if not g.has_edge(a, b)]
        g = g.with_edges(rng.sample(extra, 4))
        for _ in range(seed % 3 * 2):
            g = g.without_edge(*g.edges[rng.randrange(g.n_edges)])
        edges = list(g.edges)
        rng.shuffle(edges)
        g = SimpleGraph(g.vertices, edges)
        h = induced_subgraph(g, rng.sample(g.vertices, 4 + seed % 6))
        assert laid_out(rigid_container_2d(g, h, q)) == laid_out(container_per_pair(g, h, q))


def tree_union_multibody(n_bodies, norm, seed):
    """Complete bodies joined along k random spanning trees of the body
    indices, with a few bars dropped or added, so that both rigid and
    flexible hosts come up."""
    rng = random.Random(seed)
    k = body_bar_count(norm).k
    links = [(rng.randrange(i), i) for i in range(1, n_bodies) for _ in range(k)]
    links = [e for e in links if rng.random() < 0.9]
    links += [tuple(rng.sample(range(n_bodies), 2)) for _ in range(seed % 3)]
    degree = [sum(i in e for e in links) for i in range(n_bodies)]
    bodies, label = [], 0
    for d in degree:
        size = max(norm.d + 1 if norm.euclidean else 2 * norm.d, d)
        bodies.append(tuple(range(label, label + size)))
        label += size
    free = [list(b) for b in bodies]
    bars = [(free[a].pop(), free[b].pop()) for a, b in links]
    within = [e for b in bodies for e in combinations(b, 2)]
    return MultiBodyGraph(SimpleGraph(range(label), within + bars), bodies, bars)


@pytest.mark.parametrize("norm", [NormSpec(2, 2), NormSpec(2, 3), NormSpec(3, 3)], ids=str)
def test_multibody_container_matches_per_pair_blockers(norm):
    for seed in range(12):
        m = tree_union_multibody(4 + seed % 3, norm, seed)
        rng = random.Random(seed)
        ids = sorted(rng.sample(range(m.n_bodies), 2 + seed % 2))
        bodies = [m.bodies[i] for i in ids]
        keep = {v for b in bodies for v in b}
        part = MultiBodyGraph(
            induced_subgraph(m.underlying, keep),
            bodies,
            [e for e in m.inter_body_edges if e[0] in keep and e[1] in keep],
        )
        got = rigid_container_multibody(m, part, norm)
        want = multibody_container_per_pair(m, part, norm)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.underlying.vertices, got.underlying.edges, got.bodies) == (
                want.underlying.vertices,
                want.underlying.edges,
                want.bodies,
            )
            assert got.inter_body_edges == want.inter_body_edges


def test_each_query_family_builds_one_engine(monkeypatch):
    built = []
    init = PebbleGame.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(PebbleGame, "__init__", counting_init)
    g = grow_tight_graph("euclidean", 30, 3)
    calls = {
        "augment_to_tight": lambda: augment_to_tight(
            SimpleGraph(g.vertices, g.edges[::2]), LAMAN
        ),
        "rigid_container_2d": lambda: rigid_container_2d(
            g, induced_subgraph(g, g.vertices[:8]), 2
        ),
        "rigid_container_multibody": lambda: rigid_container_multibody(
            *chain_of_bodies()
        ),
        "inverse_candidates": lambda: inverse_candidates(
            g, LAMAN, next(v for v in g.vertices if g.degree(v) == 3)
        ),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert len(built) == 1, name


def chain_of_bodies():
    """Three K4 bodies in a row, two bars at each joint, and its end bodies."""
    bodies = [tuple(range(s, s + 4)) for s in (0, 4, 8)]
    bars = [(2, 4), (3, 5), (6, 8), (7, 9)]
    g = SimpleGraph(range(12), [e for b in bodies for e in combinations(b, 2)] + bars)
    ends = MultiBodyGraph(induced_subgraph(g, bodies[0] + bodies[2]), bodies[::2], [])
    return MultiBodyGraph(g, bodies, bars), ends, NormSpec(2, 3)
