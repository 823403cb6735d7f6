"""Seeded inputs and independent checks for the rigidkit benchmark.

Inputs are explicit edge lists made with `random.Random(seed)`; checks use
numpy on matrices assembled here.  Nothing in this file imports rigidkit, so
the way an input is built and the way a verdict is judged stay independent
of the code under test.

A graph is a pair (vertices, edges): a list of int labels and a list of
(a, b) pairs with a < b, in construction order.
"""

import random

import numpy as np


class CheckError(Exception):
    """A result contradicts what the input guarantees."""


def expect(cond, what):
    if not cond:
        raise CheckError(what)


def pair(a, b):
    return (a, b) if a < b else (b, a)


def complete_edges(labels):
    labels = list(labels)
    return [pair(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]


def trivial_dim(d, q):
    """Rigid-motion dimension of (R^d, lq) at a generic placement."""
    return d * (d + 1) // 2 if q == 2 else d


def base_size(d, q):
    """Smallest complete graph that is rigid and tight for (d, q):
    K_{d+1} in the Euclidean case, K_{2d} otherwise."""
    return d + 1 if q == 2 else 2 * d


def tight_count(q):
    """Plane count (k, l) matching generic rigidity for exponent q."""
    return (2, 3) if q == 2 else (2, 2)


# ---- bar-joint graphs -------------------------------------------------------


def extension_graph(rng, d, q, n, one_ext=False, start=None, keep=()):
    """Rigid, independent graph on range(n) grown from a rigid base.

    Each new vertex is a 0-extension (joined to d random earlier vertices)
    or, when one_ext is set (plane only), with even odds a 1-extension:
    delete an edge ab outside `keep`, join the new vertex to a, b and one
    more vertex.  Both moves keep the rank at d*n - trivial_dim.  `start`
    replaces the complete base graph; it must be rigid and independent.
    """
    if start is None:
        b = base_size(d, q)
        vertices, edges = list(range(b)), complete_edges(range(b))
    else:
        vertices, edges = list(start[0]), list(start[1])
    keep = set(keep)
    for v in range(len(vertices), n):
        if one_ext and d == 2 and len(edges) > len(keep) and rng.random() < 0.5:
            i = rng.randrange(len(edges))
            while edges[i] in keep:
                i = rng.randrange(len(edges))
            a, b = edges[i]
            c = a
            while c in (a, b):
                c = rng.choice(vertices)
            edges[i] = edges[-1]
            edges.pop()
            new = [(a, v), (b, v), (c, v)]
        else:
            new = [(w, v) for w in rng.sample(vertices, d)]
        vertices.append(v)
        edges.extend(new)
    return vertices, edges


def non_edge(rng, graph):
    vertices, edges = graph
    present = set(edges)
    while True:
        a, b = rng.sample(vertices, 2)
        if pair(a, b) not in present:
            return pair(a, b)


def edge_tally(edges, labels):
    """Edges with both ends in the label set, counted with multiplicity."""
    s = set(labels)
    return sum(1 for a, b in edges if a in s and b in s)


def relabel_shift(graph, offset):
    vertices, edges = graph
    return [v + offset for v in vertices], [(a + offset, b + offset) for a, b in edges]


def banana_block(attach, fresh):
    """Complete graph on the attach pair plus three new vertices, minus the
    attach pair itself."""
    group = [attach[0], attach[1], fresh, fresh + 1, fresh + 2]
    return [pair(a, b) for a, b in complete_edges(group) if pair(a, b) != pair(*attach)]


def banana_tower_graph(k):
    """The k-block banana tower: every stage is flexible in 3-space, yet
    each block cancels the flex of the previous one.  Block 1 and 2 form the
    double banana on the hinge pair (6, 7); block n >= 2 hangs off the tip of
    the previous block and, from block 3 on, an alternating hinge vertex."""
    edges = banana_block((6, 7), 0) + banana_block((6, 7), 3)
    for n in range(2, k + 1):
        fresh = 3 * (n - 1) + 5
        attach = (2, 5) if n == 2 else (7 if n % 2 else 6, fresh - 1)
        edges += banana_block(attach, fresh)
    return list(range(3 * k + 5)), edges


# ---- multi-body structures --------------------------------------------------


def tree_union(rng, n_nodes, k):
    """Union of k random spanning trees on range(n_nodes), node i > 0 hanging
    off a random earlier node in each tree, so every prefix range(m) also
    carries k spanning trees.  Returned as a list of node pairs."""
    out = []
    for i in range(1, n_nodes):
        for _ in range(k):
            out.append((rng.randrange(i), i))
    return out


def multibody(d, q, node_pairs, n_nodes):
    """Complete-graph bodies joined by vertex-disjoint bars.

    Body i gets one private vertex per bar it carries, one spare for an added
    bar, and at least the smallest rigid complete graph.  Returns
    (vertices, edges, bodies, bars) with bars in the order of node_pairs.
    """
    deg = [0] * n_nodes
    for a, b in node_pairs:
        deg[a] += 1
        deg[b] += 1
    bodies, label = [], 0
    for i in range(n_nodes):
        size = max(base_size(d, q), deg[i] + 1)
        bodies.append(list(range(label, label + size)))
        label += size
    free = [list(b) for b in bodies]
    bars = [pair(free[a].pop(0), free[b].pop(0)) for a, b in node_pairs]
    edges = [e for b in bodies for e in complete_edges(b)] + bars
    return list(range(label)), edges, bodies, bars


def spare_bar(rng, bodies, bars):
    """One more bar between two random bodies, on vertices no bar uses."""
    used = {v for e in bars for v in e}
    i, j = rng.sample(range(len(bodies)), 2)
    a = next(v for v in bodies[i] if v not in used)
    b = next(v for v in bodies[j] if v not in used)
    return pair(a, b)


# ---- own linear algebra -----------------------------------------------------


def random_points(rng, vertices, d):
    return {v: [rng.uniform(-1.0, 1.0) for _ in range(d)] for v in vertices}


def rigidity_matrix(vertices, edges, points, q):
    """Row per edge: sgn(x)|x|^(q-1) of p_a - p_b in a's block, negated in b's."""
    d = len(next(iter(points.values())))
    col = {v: i for i, v in enumerate(vertices)}
    m = np.zeros((len(edges), d * len(vertices)))
    for r, (a, b) in enumerate(edges):
        x = np.asarray(points[a], dtype=float) - np.asarray(points[b], dtype=float)
        row = np.sign(x) * np.abs(x) ** (float(q) - 1.0)
        m[r, d * col[a]: d * col[a] + d] = row
        m[r, d * col[b]: d * col[b] + d] = -row
    return m


def conditioned_points(rng, graph, q, d, rank, floor=1e-5, attempts=500):
    """Uniform random placement at which the rigidity matrix of `graph` has
    its rank-th singular value at least `floor` times the largest.

    A plain uniform draw often has a singular value so small that a fixed
    numeric cutoff misreads the rank (see the README); redrawing keeps
    every placement-level verdict of the benchmark unambiguous.
    """
    vertices, edges = graph
    for _ in range(attempts):
        pts = random_points(rng, vertices, d)
        s = np.linalg.svd(rigidity_matrix(vertices, edges, pts, q), compute_uv=False)
        if s[rank - 1] >= floor * s[0]:
            return pts
    raise RuntimeError(f"no placement with a clear rank {rank} in {attempts} draws")


def rank_with_gap(m, gap=1e4):
    """Numeric rank, trusted only when the kept and dropped singular values
    are at least `gap` apart; returns None when the split is unclear."""
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    floor = s[0] * np.finfo(float).eps
    r = int(np.sum(s > floor * max(m.shape)))
    dropped = s[r] if r < len(s) else 0.0
    if s[r - 1] < gap * max(dropped, floor):
        return None
    return r


def rng_for(seed, tag):
    """Independent stream per input family, so adding one family leaves the
    inputs of the others unchanged."""
    return random.Random(f"{seed}:{tag}")
