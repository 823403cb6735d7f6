"""Seeded random generators shared across test modules."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable

import numpy as np

from rigidkit.bodybar import (
    MultiBodyGraph,
    _independence_threshold,
    body_bar_count,
    validate_multibody,
)
from rigidkit.frameworks import (
    RANK_EPS,
    kernel_basis,
    placement_rank,
    random_placement,
    rigidity_matrix,
    trivial_motion_basis,
)
from rigidkit.graphs import (
    GraphLike,
    MultiGraph,
    SimpleGraph,
    complete_graph_on,
    graph_union,
    normalize_edge,
)
from rigidkit.errors import AlgorithmError, InputError, MoveError
from rigidkit.moves import (
    EdgeMove,
    VertexExtension,
    VertexSplit3D,
    VertexTo4Cycle,
    VertexToK4,
    apply_move,
)
from rigidkit.norms import NormSpec
from rigidkit.sparsity import PebbleGame, SparsityCount, planar_count
from rigidkit.towers import anchor_threshold


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.1f}s >= {seconds}s"


def reference_apply(g, m):
    """Reference for moves.apply_move: one graph builder per move kind,
    fixing the vertex order, the edge order and the MoveError texts."""

    def require_distinct(items, what):
        if len(set(items)) != len(items):
            raise MoveError(f"{what} must be distinct, got {items}")

    def require_fresh(labels):
        clash = [v for v in labels if v in g.vertex_set]
        if clash:
            raise MoveError(f"new vertex labels {clash} already present")

    def require_present(labels):
        missing = [v for v in labels if v not in g.vertex_set]
        if missing:
            raise MoveError(f"referenced vertices {missing} not in the graph")

    if isinstance(m, VertexExtension):
        if not m.neighbors:
            raise MoveError("vertex extension needs at least one neighbor")
        require_distinct(m.neighbors, "extension neighbors")
        require_fresh([m.vertex])
        require_present(m.neighbors)
        star = [(m.vertex, w) for w in m.neighbors]
        return SimpleGraph(g.vertices + (m.vertex,), list(g.edges) + star)
    if isinstance(m, EdgeMove):
        a, b = normalize_edge(*m.removed)
        if (a, b) not in g.edge_set:
            raise MoveError(f"edge {m.removed} to remove is not present")
        require_distinct(m.neighbors, "edge-move neighbors")
        if not {a, b} <= set(m.neighbors):
            raise MoveError("removed endpoints must be among the new neighbors")
        require_fresh([m.vertex])
        require_present(m.neighbors)
        kept = [e for e in g.edges if e != (a, b)]
        star = [(m.vertex, w) for w in m.neighbors]
        return SimpleGraph(g.vertices + (m.vertex,), kept + star)
    if isinstance(m, VertexToK4):
        require_present([m.base])
        require_distinct(m.added, "vertex-to-K4 additions")
        require_fresh(m.added)
        seen = set()
        for x, target in m.reassigned:
            if x in seen:
                raise MoveError(f"endpoint {x} reassigned twice")
            seen.add(x)
            if not g.has_edge(m.base, x):
                raise MoveError(f"no edge {m.base}-{x} to reassign")
            if target not in m.added:
                raise MoveError(f"reassignment target {target} is not a new vertex")
        dropped = {normalize_edge(m.base, x) for x, _ in m.reassigned}
        edges = [e for e in g.edges if e not in dropped]
        corner = (m.base, *m.added)
        edges.extend(normalize_edge(u, w) for u, w in combinations(corner, 2))
        edges.extend(normalize_edge(target, x) for x, target in m.reassigned)
        return SimpleGraph(g.vertices + m.added, edges)
    if isinstance(m, VertexTo4Cycle):
        na, nb = m.pair
        if na == nb:
            raise MoveError("4-cycle pair must be two distinct neighbors")
        for w in m.pair:
            if not g.has_edge(m.base, w):
                raise MoveError(f"no edge {m.base}-{w} at the 4-cycle base")
        require_distinct(m.moved, "migrated endpoints")
        require_fresh([m.vertex])
        bad = [w for w in m.moved if w in m.pair or not g.has_edge(m.base, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")
        dropped = {normalize_edge(m.base, w) for w in m.moved}
        edges = [e for e in g.edges if e not in dropped]
        edges.append(normalize_edge(m.vertex, na))
        edges.append(normalize_edge(m.vertex, nb))
        edges.extend(normalize_edge(m.vertex, w) for w in m.moved)
        return SimpleGraph(g.vertices + (m.vertex,), edges)
    if isinstance(m, VertexSplit3D):
        a2, a3 = m.anchors
        if a2 == a3:
            raise MoveError("anchors must be distinct")
        for w in m.anchors:
            if not g.has_edge(m.split, w):
                raise MoveError(f"anchor {w} is not a neighbor of {m.split}")
        require_distinct(m.moved, "migrated endpoints")
        require_fresh([m.vertex])
        bad = [w for w in m.moved if w in m.anchors or not g.has_edge(m.split, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")
        dropped = {normalize_edge(m.split, w) for w in m.moved}
        edges = [e for e in g.edges if e not in dropped]
        edges.append(normalize_edge(m.vertex, m.split))
        edges.append(normalize_edge(m.vertex, a2))
        edges.append(normalize_edge(m.vertex, a3))
        edges.extend(normalize_edge(m.vertex, w) for w in m.moved)
        return SimpleGraph(g.vertices + (m.vertex,), edges)
    raise MoveError(f"unknown move {m!r}")


def random_graph(n: int, p: float, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return SimpleGraph(range(n), edges)


def _grow_step(g, mode, rng, protected, n_target):
    nxt = max(g.vertices) + 1
    verts = list(g.vertices)
    removable = [e for e in g.edges if e not in protected]
    options = []
    if g.n_vertices >= 2:
        options.append(("ext", 40))
    if g.n_vertices >= 3 and removable:
        options.append(("edge", 25))
    if mode == "qnorm":
        if g.n_vertices == 1 or g.n_vertices + 3 <= n_target:
            options.append(("k4", 20))
        if any(g.degree(v) >= 2 for v in verts):
            options.append(("cycle", 15))
    kind = rng.choices([k for k, _ in options], [w for _, w in options])[0]
    if kind == "ext":
        a, b = rng.sample(verts, 2)
        move = VertexExtension(nxt, (a, b))
    elif kind == "edge":
        a, b = rng.choice(removable)
        c = rng.choice([v for v in verts if v not in (a, b)])
        move = EdgeMove((a, b), nxt, (a, b, c))
    elif kind == "k4":
        base = rng.choice(verts)
        added = (nxt, nxt + 1, nxt + 2)
        reassigned = tuple(
            (x, rng.choice(added))
            for x in g.neighbors(base)
            if normalize_edge(base, x) not in protected and rng.random() < 0.5
        )
        move = VertexToK4(base, added, reassigned)
    else:
        base = rng.choice([v for v in verts if g.degree(v) >= 2])
        na, nb = rng.sample(list(g.neighbors(base)), 2)
        moved = tuple(
            w
            for w in g.neighbors(base)
            if w not in (na, nb)
            and normalize_edge(base, w) not in protected
            and rng.random() < 0.5
        )
        move = VertexTo4Cycle(base, (na, nb), nxt, moved)
    return apply_move(g, move)


def grow_tight_graph(mode, n_target, seed, start=None, protected=()):
    """Random tight graph built by forward moves: from K2 under (2,3)
    (mode "euclidean") or from K1 under (2,2) (mode "qnorm").  Edges in
    `protected` are never removed or reassigned, so a protected start
    stays a subgraph of the result."""
    rng = random.Random(seed)
    if start is None:
        start = (
            SimpleGraph([0, 1], [(0, 1)])
            if mode == "euclidean"
            else SimpleGraph([0], [])
        )
    fixed = {normalize_edge(*e) for e in protected}
    g = start
    while g.n_vertices < n_target:
        g = _grow_step(g, mode, rng, fixed, n_target)
    return g


def zero_extension_graph(n, d, base, seed):
    """Complete graph on `base` vertices, then each further vertex joined to
    d random earlier ones.  Rigid by construction in dimension d when the
    base is: K_{d+1} in the Euclidean case, K_{2d} otherwise."""
    rng = random.Random(seed)
    edges = [(a, b) for a in range(base) for b in range(a + 1, base)]
    for v in range(base, n):
        edges += [(u, v) for u in rng.sample(range(v), d)]
    return SimpleGraph(range(n), edges)


def shuffled_copy(g, rng):
    """g with new labels and its vertex and edge orders shuffled by rng."""
    label = dict(zip(g.vertices, rng.sample(range(3 * g.n_vertices), g.n_vertices)))
    vertices = [label[v] for v in g.vertices]
    edges = [(label[a], label[b]) for a, b in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return SimpleGraph(vertices, edges)


def random_multibody(n_bodies, norm, seed, n_bars=None):
    """Random multi-body structure with complete bodies and disjoint bars.

    Bodies are sized so they are rigid for the norm and can host as many
    bars as the governing count asks for.  The default bar budget spreads
    around the tight count, so suites mix rigid, flexible and overbraced
    instances; the realized number can fall short when joints run out."""
    rng = random.Random(seed)
    k = body_bar_count(norm).k
    base = norm.d + 1 if norm.euclidean else 2 * norm.d
    sizes = [max(base, k) + rng.randrange(2) for _ in range(n_bodies)]
    bodies = []
    label = 0
    for s in sizes:
        bodies.append(tuple(range(label, label + s)))
        label += s
    if n_bars is None:
        n_bars = max(1, k * (n_bodies - 1) + rng.randrange(-k, k + 1))
    free = {i: list(b) for i, b in enumerate(bodies)}
    bars = []
    for _ in range(60 * n_bars):
        if len(bars) == n_bars:
            break
        a, b = rng.sample(range(n_bodies), 2)
        if not free[a] or not free[b]:
            continue
        u = free[a].pop(rng.randrange(len(free[a])))
        w = free[b].pop(rng.randrange(len(free[b])))
        bars.append((u, w))
    within = [
        (b[i], b[j]) for b in bodies for i in range(len(b)) for j in range(i + 1, len(b))
    ]
    return validate_multibody(SimpleGraph(range(label), within + bars), bodies, norm)


def complete_bodies(n_bodies, size, rng):
    """Complete bodies of one size, each joined to the next by one bar, with
    labels, vertex order and edge order shuffled by rng; bars use distinct
    vertices.  Returns the graph and the bodies."""
    labels = rng.sample(range(3 * n_bodies * size), n_bodies * size)
    bodies = [labels[i * size : (i + 1) * size] for i in range(n_bodies)]
    edges = [e for b in bodies for e in combinations(b, 2)]
    edges += [(bodies[i][0], bodies[i + 1][1]) for i in range(n_bodies - 1)]
    rng.shuffle(edges)
    rng.shuffle(labels)
    return SimpleGraph(labels, edges), bodies


def random_tight_multigraph(n, d, seed):
    """Union of d random spanning trees, shuffled; (d, d)-tight by layers."""
    rng = random.Random(seed)
    edges = []
    for _ in range(d):
        order = list(range(n))
        rng.shuffle(order)
        edges += [(order[i], rng.choice(order[:i])) for i in range(1, n)]
    rng.shuffle(edges)
    return MultiGraph(range(n), edges)


def realize_bodybar(gb, norm):
    """Multi-body structure whose collapsed multigraph is gb."""
    d = norm.d
    deg = {v: 0 for v in gb.vertices}
    for a, b in gb.edges:
        deg[a] += 1
        deg[b] += 1
    base = {}
    bodies = []
    label = 0
    for v in gb.vertices:
        s = max(2 * d, deg[v])
        base[v] = label
        bodies.append(tuple(range(label, label + s)))
        label += s
    used = {v: 0 for v in gb.vertices}
    bars = []
    for a, b in gb.edges:
        bars.append((base[a] + used[a], base[b] + used[b]))
        used[a] += 1
        used[b] += 1
    within = [
        (b[i], b[j]) for b in bodies for i in range(len(b)) for j in range(i + 1, len(b))
    ]
    return validate_multibody(SimpleGraph(range(label), within + bars), bodies, norm)


def seeded_tight_witnesses(stages, count):
    """Reference for the nested tight witnesses of a tower: a fresh pebble
    game per stage takes the previous witness first, then the stage's other
    edges in order (one copy of a parallel edge per seed).  The witnesses,
    or None at the first stage whose game falls short of tight."""
    witness = []
    prev = ()
    for stage in stages:
        pool = list(stage.edges)
        for e in prev:
            pool.remove(e)
        game = PebbleGame(stage.vertices, count)
        assert all(game.insert(*e) for e in prev)
        kept = list(prev) + [e for e in pool if game.insert(*e)]
        if len(kept) != count.target(stage.n_vertices):
            return None
        witness.append(type(stage)(stage.vertices, kept))
        prev = tuple(kept)
    return witness


def unskipped_rigid_container_2d(g, h, q):
    """Reference for towers.rigid_container_2d that asks the game for the
    blocker of every vertex pair of h, covered by an earlier closure or not."""
    norm = NormSpec(2, q)
    need = anchor_threshold(norm)
    if not h.is_subgraph_of(g):
        raise InputError("h must be a subgraph of g")
    if h.n_vertices < need:
        raise InputError(
            f"rigid container for q={q} needs at least {need} vertices in h, "
            f"got {h.n_vertices}"
        )
    game = PebbleGame.over(g, planar_count(norm))
    thin = SimpleGraph(g.vertices, tuple(g.edges[i] for i in game.accepted))
    vs, es = dict.fromkeys(h.vertices), dict.fromkeys(h.edges)
    for v, w in combinations(sorted(h.vertex_set), 2):
        if thin.has_edge(v, w):
            es[(v, w)] = None
            continue
        closure = game.blocker(v, w)
        if closure is None:
            return None
        vs.update(dict.fromkeys(x for x in thin.vertices if x in closure))
        es.update(dict.fromkeys(e for e in thin.edges if closure.issuperset(e)))
    return SimpleGraph(vs, es)


def unskipped_rigid_container_multibody(g, h, norm):
    """Reference for bodybar.rigid_container_multibody that asks the game for
    the blocker of every pair of h's bodies, covered by an earlier closure
    or not."""
    if not h.is_subgraph_of(g):
        raise InputError("the part is not a sub-structure of the host")
    need = _independence_threshold(norm)
    if h.underlying.n_vertices < need:
        raise InputError(
            f"the anchored part needs at least {need} vertices for {norm}, "
            f"got {h.underlying.n_vertices}"
        )
    game = PebbleGame.over(g.collapsed, body_bar_count(norm))
    bar_pos = {e: t for t, e in enumerate(g.inter_body_edges)}
    chosen_bodies = {g.body_index[frozenset(b)] for b in h.bodies}
    chosen_bars = {bar_pos[e] for e in h.inter_body_edges}
    anchors = sorted(chosen_bodies)
    for a, b in combinations(anchors, 2):
        inside = game.blocker(a, b)
        if inside is None:
            return None
        chosen_bodies |= inside
        chosen_bars.update(
            t for t in game.accepted if inside.issuperset(g.collapsed.edges[t])
        )
    bodies = tuple(g.bodies[i] for i in sorted(chosen_bodies))
    bars = set(g.inter_body_edges[t] for t in sorted(chosen_bars))
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


class LabelPebbleGame:
    """Reference for sparsity.PebbleGame: the same game on dicts and sets
    keyed by vertex label, one parent dict and blocked set per search.

    Pebble digraph for one (k, l) count, built once per graph.

    The game holds the edges insert kept and delete has not dropped since.
    `accepted` still lists only the offering positions of the edges insert
    kept; delete leaves it as it is.  admits and blocker query a pair
    against the held edges without adding one, and may be mixed freely with
    insertions and deletions.
    """

    def __init__(self, vertices: Iterable[int], count: SparsityCount):
        self.l = count.l
        self.pebbles = {v: count.k for v in vertices}
        self.out: dict[int, list[int]] = {v: [] for v in self.pebbles}
        self.accepted: list[int] = []
        self._offered = 0

    @classmethod
    def over(cls, g: GraphLike, count: SparsityCount) -> "LabelPebbleGame":
        """Game with every edge of g offered in input order."""
        game = cls(g.vertices, count)
        for u, w in g.edges:
            game.insert(u, w)
        return game

    def _find_pebble(self, root: int, blocked: set[int]) -> bool:
        """Pull one free pebble to root along a directed path, if any.

        Vertices in `blocked` neither give up pebbles nor restart the search;
        during insertion these are the two endpoints, whose pebbles are
        already counted.
        """
        parent: dict[int, int] = {root: root}
        stack = [root]
        found = None
        while stack and found is None:
            v = stack.pop()
            for w in self.out[v]:
                if w in parent:
                    continue
                parent[w] = v
                if self.pebbles[w] > 0 and w not in blocked:
                    found = w
                    break
                stack.append(w)
        if found is None:
            return False
        # Reverse the arcs along the path, carrying the pebble to the root.
        w = found
        while w != root:
            v = parent[w]
            self.out[v].remove(w)
            self.out[w].append(v)
            w = v
        self.pebbles[found] -= 1
        self.pebbles[root] += 1
        return True

    def admits(self, u: int, w: int) -> bool:
        """Whether edge uw is independent of the held edges.

        Gathers l + 1 pebbles on the pair {u, w}, which is possible exactly
        when no tight subgraph contains both endpoints.
        """
        need = self.l + 1
        blocked = {u, w}
        while self.pebbles[u] + self.pebbles[w] < need:
            if not (self._find_pebble(u, blocked) or self._find_pebble(w, blocked)):
                return False
        return True

    def insert(self, u: int, w: int) -> bool:
        """Offer edge uw and keep it when admitted."""
        pos = self._offered
        self._offered += 1
        if not self.admits(u, w):
            return False
        tail, head = (u, w) if self.pebbles[u] > 0 else (w, u)
        self.pebbles[tail] -= 1
        self.out[tail].append(head)
        self.accepted.append(pos)
        return True

    def delete(self, u: int, w: int) -> None:
        """Drop a held edge uw: remove its arc and return the pebble to the
        arc's tail.

        Every vertex keeps pebbles + out-degree = k and the held edges stay
        sparse, which is all admits and blocker rely on (Lee and Streinu,
        Pebble game algorithms and sparse graphs, 2008).
        """
        for tail, head in ((u, w), (w, u)):
            if head in self.out.get(tail, ()):
                self.out[tail].remove(head)
                self.pebbles[tail] += 1
                return
        raise InputError(f"edge ({u}, {w}) is not held by the game")

    def blocker(self, u: int, w: int) -> frozenset[int] | None:
        """Vertices of the minimal tight subgraph containing u and w.

        None when edge uw is admitted.  The held edges induced on the
        returned vertices form that subgraph.
        """
        if self.admits(u, w):
            return None
        seen = {u, w}
        stack = [w, u]
        while stack:
            for x in self.out[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        # No arc leaves the closure, so its held edges number k|V| minus
        # the pebbles left on it.
        if sum(self.pebbles[x] for x in seen) != self.l:
            raise AlgorithmError("pebble closure failed to produce a tight subgraph")
        return frozenset(seen)

    def tree_path(self, u: int, w: int) -> list[int] | None:
        """Vertices along the u-w path in the forest of a (1, 1) game, or None
        when u and w lie in different trees: each tree keeps its one pebble on
        its root, and every other vertex's one out-arc points toward it."""
        out = self.out
        depth = {u: 0}
        x = u
        while out[x]:
            x = out[x][0]
            depth[x] = len(depth)
        down = [w]
        while down[-1] not in depth:
            if not out[down[-1]]:
                return None
            down.append(out[down[-1]][0])
        return list(islice(depth, depth[down[-1]])) + down[::-1]


def glued_relative_nullities(g, h, norm, seed):
    """Reference for relative_rigidity: the nullities of g and of g with a
    complete graph glued over h's vertices, ranked by placement_rank at the
    placement relative_rigidity samples for the same seed."""
    p = random_placement(g, norm, seed)
    glued = graph_union(g, complete_graph_on(h.vertices))
    cols = norm.d * g.n_vertices
    return cols - placement_rank(g, p, norm), cols - placement_rank(glued, p, norm)


def assert_witness_flex(g, h, norm, verdict):
    """A failing verdict's witness is a unit flex of g, orthogonal to the
    trivial motions and to every flex of g with a complete graph glued over
    h, which therefore does not annihilate it."""
    p = verdict.placement
    u = np.concatenate([verdict.witness_flex[v] for v in g.vertices])
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    rg = rigidity_matrix(g, p, norm)
    assert np.linalg.norm(rg @ u) <= 1e-9 * max(np.linalg.norm(rg), 1.0)
    triv = trivial_motion_basis(g, p, norm)
    assert np.linalg.norm(triv @ u) < 1e-9
    glued = rigidity_matrix(graph_union(g, complete_graph_on(h.vertices)), p, norm)
    rank = norm.d * g.n_vertices - verdict.nullity_anchored
    glued_kernel = np.linalg.svd(glued, full_matrices=True)[2][rank:]
    assert np.linalg.norm(glued_kernel @ u) < 1e-8
    k_h = rigidity_matrix(complete_graph_on(h.vertices), p, norm)
    u_h = np.concatenate([verdict.witness_flex[v] for v in h.vertices])
    assert np.linalg.norm(k_h @ u_h) > 1e-6 * np.linalg.norm(k_h)


def record_complete_svds(monkeypatch):
    """The shapes of the complete SVDs (every singular vector computed) that
    numpy runs from now until monkeypatch is undone, in call order.  Thin
    SVDs (the motion basis, the flex basis, a witness's own) can share a
    rigidity matrix's shape, so they are not recorded."""
    shapes = []
    real_svd = np.linalg.svd

    def svd(a, full_matrices=True, compute_uv=True, **kwargs):
        if full_matrices and compute_uv:
            shapes.append(np.shape(a))
        return real_svd(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes


def eager_flex_basis(g, p, norm, rank=None, tol=RANK_EPS):
    """Reference for the flex basis a report builds on first read, written
    out as reports used to build it on construction.  With a rank
    (report_at_rank), the kernel rows are the singular vectors after it of
    the matrix with unit rows, each row divided by its largest entry and
    then by its norm, and the norm counts the motions.  Without one
    (flex_report), they are kernel_basis at tol, and the motions are ranked
    at tol.  The motions are projected out, and a thin SVD gives the basis."""
    m = rigidity_matrix(g, p, norm)
    if rank is None:
        kern = kernel_basis(m, tol)
        triv = trivial_motion_basis(g, p, norm, tol)
        trivial_dim = triv.shape[0]
    else:
        top = np.abs(m).max(axis=1, keepdims=True)
        m = m / np.where(top > 0.0, top, 1.0)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1.0)
        kern = np.linalg.svd(m, full_matrices=True)[2][rank:]
        triv = trivial_motion_basis(g, p, norm)
        trivial_dim = norm.trivial_dim_at(g.n_vertices)
    flex_dim = kern.shape[0] - trivial_dim
    if flex_dim <= 0:
        return ()
    residual = kern - (kern @ triv.T) @ triv
    vt = np.linalg.svd(residual, full_matrices=False)[2]
    return tuple(vt[i].reshape(g.n_vertices, norm.d) for i in range(flex_dim))


def _row_reduce(m, n_cols):
    """Gauss-Jordan elimination over the rationals of the Fraction rows m,
    in place, on their first n_cols columns.  Returns the pivot columns in
    order; the i-th is the leading 1 of row i."""
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [v / scale for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def exact_kernel(g, p, norm):
    """Reference for g's kernel at the placement p, for an integer q.

    Float coordinates are dyadic rationals, so the rigidity matrix at p has
    rational entries sgn(x)|x|^(q-1), x an exact coordinate difference.
    Its kernel comes from solve_exact's elimination, one vector per free
    column, and is returned as orthonormal float rows."""
    q = int(norm.q)
    assert q == norm.q, "exact_kernel needs an integer q"
    d, n, idx = norm.d, g.n_vertices, g.index_of
    rows = []
    for v, w in g.edges:
        row = [Fraction(0)] * (d * n)
        for i in range(d):
            x = Fraction(p[v][i]) - Fraction(p[w][i])
            val = ((x > 0) - (x < 0)) * abs(x) ** (q - 1)
            row[d * idx[v] + i], row[d * idx[w] + i] = val, -val
        rows.append(row)
    pivots = _row_reduce(rows, d * n)
    basis = []
    for f in sorted(set(range(d * n)) - set(pivots)):
        vec = [Fraction(0)] * (d * n)
        vec[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[f]
        basis.append([float(x) for x in vec])
    return np.linalg.qr(np.array(basis).T)[0].T


def solve_exact(rows, rhs):
    """Unique rational solution of a linear system, or AssertionError.

    Asserts full column rank and consistency so a test using it also pins
    down uniqueness of the solution it freezes.
    """
    aug = [
        [Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)
    ]
    n_cols = len(aug[0]) - 1
    pivots = _row_reduce(aug, n_cols)
    free = sorted(set(range(n_cols)) - set(pivots))
    assert not free, f"column {free[0]} is free: solution not unique"
    for row in aug[n_cols:]:
        assert not row[-1], "inconsistent system"
    return [aug[i][-1] for i in range(n_cols)]
