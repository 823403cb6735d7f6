"""Seeded random generators shared across test modules."""

import random
from itertools import combinations

import numpy as np

from rigidkit.bodybar import body_bar_count, validate_multibody
from rigidkit.frameworks import (
    kernel_at_rank,
    placement_rank,
    random_placement,
    rigidity_matrix,
    trivial_motion_basis,
)
from rigidkit.graphs import (
    MultiGraph,
    SimpleGraph,
    complete_graph_on,
    graph_union,
    normalize_edge,
)
from rigidkit.errors import MoveError
from rigidkit.moves import (
    EdgeMove,
    VertexExtension,
    VertexSplit3D,
    VertexTo4Cycle,
    VertexToK4,
    apply_move,
)
from rigidkit.sparsity import PebbleGame


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
        grown = SimpleGraph(g.vertices + (m.vertex,), g.edges)
        return grown.with_edges([(m.vertex, w) for w in m.neighbors])
    if isinstance(m, EdgeMove):
        a, b = normalize_edge(*m.removed)
        if (a, b) not in g.edge_set:
            raise MoveError(f"edge {m.removed} to remove is not present")
        require_distinct(m.neighbors, "edge-move neighbors")
        if not {a, b} <= set(m.neighbors):
            raise MoveError("removed endpoints must be among the new neighbors")
        require_fresh([m.vertex])
        require_present(m.neighbors)
        cut = g.without_edge(a, b)
        grown = SimpleGraph(cut.vertices + (m.vertex,), cut.edges)
        return grown.with_edges([(m.vertex, w) for w in m.neighbors])
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
    assert np.linalg.norm(kernel_at_rank(glued, rank) @ u) < 1e-8
    k_h = rigidity_matrix(complete_graph_on(h.vertices), p, norm)
    u_h = np.concatenate([verdict.witness_flex[v] for v in h.vertices])
    assert np.linalg.norm(k_h @ u_h) > 1e-6 * np.linalg.norm(k_h)


def solve_exact(rows, rhs):
    """Unique rational solution of a linear system, or AssertionError.

    Asserts full column rank and consistency so a test using it also pins
    down uniqueness of the solution it freezes.
    """
    from fractions import Fraction

    aug = [
        [Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)
    ]
    n_cols = len(aug[0]) - 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        assert piv is not None, f"column {c} is free: solution not unique"
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
    for row in aug[r:]:
        assert not row[-1], "inconsistent system"
    return [aug[i][-1] for i in range(n_cols)]
