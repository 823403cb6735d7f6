"""Structures made of rigid bodies linked by disjoint bars.

A multi-body structure is a simple graph partitioned into generically rigid
bodies, with every edge between two bodies acting as a bar; bars are pairwise
vertex-disjoint and no joint carries more than one of them.  Collapsing each
body to a single node turns the bar set into a loop-free multigraph, which
the structure builds once and keeps as its `collapsed` attribute, and that
multigraph alone governs rigidity: the structure is rigid exactly when the
multigraph contains a (k, k)-tight spanning subgraph (body_bar_count), where
k is the rigid-motion dimension of the ambient space, d(d+1)/2 in the Euclidean
case and d otherwise.  Since only the collapsed multigraph matters, bodies
are freely interchangeable, and for the non-Euclidean exponents a concrete
rigid placement can be constructed by threading the bars along a spanning
tree decomposition.  Relative rigidity of one multi-body structure inside
another is equivalent to the presence of a rigid multi-body container in
every dimension, in contrast with the general bar-joint situation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlgorithmError,
    InconsistencyError,
    InputError,
    PlacementError,
)
from .frameworks import (
    FlexReport,
    NormSpec,
    Placement,
    _best_placement,
    _certified_rank,
    _plane_cross_check,
    is_rigid_generic,
    placement_rank,
    random_placement,
    report_at_rank,
)
from .graphs import MultiGraph, SimpleGraph, Tower, normalize_edge
from .sparsity import PebbleGame, SparsityCount, is_sparse
from .towers import (
    LAMAN_TOWER_MINIMAL,
    LAMAN_TOWER_NOT,
    LAMAN_TOWER_RIGID,
    _containers,
    _nested_witnesses,
    _require_kind,
)

__all__ = [
    "MultiBodyGraph",
    "TayVerdict",
    "SpecialPlacementResult",
    "MultiBodyTower",
    "BodyBarTowerVerdict",
    "BODYBAR_TOWER_MINIMAL",
    "body_bar_count",
    "validate_multibody",
    "labeled_body_bar",
    "tay_decide",
    "spanning_tree_layers",
    "nash_williams_trees",
    "special_placement",
    "essentially_independent",
    "rigid_container_multibody",
    "bodybar_tower_decide",
]

# Above this vertex count the numeric cross-checks are skipped.
_NUMERIC_CHECK_CAP = 36


def body_bar_count(norm: NormSpec) -> SparsityCount:
    """The (k, k) count of the collapsed multigraph for this norm, k the
    dimension of the rigid motions."""
    k = norm.trivial_dim_generic
    return SparsityCount(k, k)


def _structure_problems(g: SimpleGraph, bodies: Sequence[Sequence[int]]) -> list[str]:
    """Partition rule violations, then (on a sound partition) shared joints."""
    problems: list[str] = []
    owner: dict[int, int] = {}
    for i, b in enumerate(bodies):
        if not b:
            problems.append(f"body {i} is empty")
        for v in b:
            if v in owner:
                problems.append(f"vertex {v} appears in bodies {owner[v]} and {i}")
            owner[v] = i
    missing = g.vertex_set - owner.keys()
    if missing:
        problems.append(f"vertices {sorted(missing)} belong to no body")
    extra = owner.keys() - g.vertex_set
    if extra:
        problems.append(f"body vertices {sorted(extra)} are not in the graph")
    if not problems:
        seen: set[int] = set()
        for v, w in g.edges:
            if owner[v] != owner[w]:
                for end in (v, w):
                    if end in seen:
                        problems.append(f"vertex {end} meets two inter-body bars")
                    seen.add(end)
    return problems


def _body_subgraphs(
    g: SimpleGraph, bodies: Sequence[Sequence[int]]
) -> tuple[SimpleGraph, ...]:
    """The subgraph of g each body induces, in g's vertex and edge order as
    induced_subgraph gives it, from one pass over g."""
    owner = {v: i for i, b in enumerate(bodies) for v in b}
    parts: list[tuple[list, list]] = [([], []) for _ in bodies]
    for v in g.vertices:
        parts[owner[v]][0].append(v)
    for v, w in g.edges:
        if owner[v] == owner[w]:
            parts[owner[v]][1].append((v, w))
    return tuple(SimpleGraph(*part) for part in parts)


@dataclass(frozen=True)
class MultiBodyGraph:
    """Simple graph partitioned into bodies joined by vertex-disjoint bars.

    Construction enforces the structural rules (bodies partition the vertex
    set, the bars are exactly the edges between distinct bodies, and no
    vertex carries two bars) on the bodies as listed, then sorts them by
    least vertex.  Generic rigidity depends on the norm and is checked by
    validate_multibody, the intended entry point for external data.
    """

    underlying: SimpleGraph
    bodies: tuple[tuple[int, ...], ...]
    inter_body_edges: tuple[tuple[int, int], ...]

    def __init__(
        self,
        underlying: SimpleGraph,
        bodies: Iterable[Iterable[int]],
        inter_body_edges: Iterable[Sequence[int]],
    ):
        bs = tuple(tuple(sorted(int(v) for v in b)) for b in bodies)
        problems = _structure_problems(underlying, bs)
        if problems:
            raise InputError("; ".join(problems))
        bs = tuple(sorted(bs))  # disjoint and nonempty: by least vertex
        owner = {v: i for i, b in enumerate(bs) for v in b}
        bars = tuple(normalize_edge(*e) for e in inter_body_edges)
        cross = tuple(e for e in underlying.edges if owner[e[0]] != owner[e[1]])
        if set(bars) != set(cross) or len(bars) != len(cross):
            raise InputError(
                "inter-body edges must be exactly the edges between distinct bodies"
            )
        object.__setattr__(self, "underlying", underlying)
        object.__setattr__(self, "bodies", bs)
        object.__setattr__(self, "inter_body_edges", cross)

    @property
    def n_bodies(self) -> int:
        return len(self.bodies)

    @cached_property
    def body_of(self) -> dict[int, int]:
        """Vertex label -> index into the body tuple."""
        return {v: i for i, b in enumerate(self.bodies) for v in b}

    @cached_property
    def body_index(self) -> dict[frozenset[int], int]:
        return {frozenset(b): i for i, b in enumerate(self.bodies)}

    @cached_property
    def body_subgraphs(self) -> tuple[SimpleGraph, ...]:
        return _body_subgraphs(self.underlying, self.bodies)

    @cached_property
    def collapsed(self) -> MultiGraph:
        """Multigraph on the body indices, one edge per bar: edge i joins the
        bodies at the two ends of inter_body_edges[i].  Parallel edges are
        indistinguishable as vertex pairs, so downstream constructions rely
        on this positional alignment."""
        owner = self.body_of
        return MultiGraph(
            range(self.n_bodies),
            tuple((owner[v], owner[w]) for v, w in self.inter_body_edges),
        )

    def is_subgraph_of(self, other: "MultiBodyGraph") -> bool:
        """Every body of self is a body of other, and other's graph contains self's."""
        return self.underlying.is_subgraph_of(other.underlying) and all(
            frozenset(b) in other.body_index for b in self.bodies
        )

    def __repr__(self) -> str:
        return (
            f"MultiBodyGraph({self.n_bodies} bodies, "
            f"{len(self.inter_body_edges)} bars)"
        )


def validate_multibody(
    g: SimpleGraph, bodies: Iterable[Iterable[int]], norm: NormSpec
) -> MultiBodyGraph:
    """Build a multi-body structure, reporting every violated rule at once.

    Building the structure checks the partition and bar rules first; only a
    sound one ranks its bodies, in the order listed.  One random
    placement of g ranks every body's slice, as essentially_independent
    does.  Each body first peels with |E_i| - norm.rigid_rank(n_i) rows to
    drop: the kept rows are rows of the body's matrix, so their rank is a
    lower bound on its rank, and one that reaches norm.rigid_rank(n_i)
    certifies the body rigid on the spanning subgraph of the kept edges (a
    complete body keeps a 0-extension graph on its base).  A body that falls
    short is ranked whole at the same placement and certified when that
    rank reaches norm.rigid_rank(n_i).  In the plane the certifying subgraph
    must also have a tight spanning subgraph.  Only a body that falls short
    again is ranked by is_rigid_generic, at one placement of its own for an
    integer q and up to five otherwise, and reported if it stays short.
    """
    bs = tuple(tuple(sorted(int(v) for v in b)) for b in bodies)
    owner = {v: i for i, b in enumerate(bs) for v in b}
    m = MultiBodyGraph(g, bs, (e for e in g.edges if owner.get(e[0]) != owner.get(e[1])))
    p = random_placement(g, norm, 0)
    problems = []
    for i, b in enumerate(bs):
        part = m.body_subgraphs[m.body_index[frozenset(b)]]
        rank, dropped = _certified_rank(part, p, norm)
        if rank >= norm.rigid_rank(len(b)):
            if norm.d == 2:  # the one reader of the kept edges
                gone = set(dropped)
                kept = [e for t, e in enumerate(part.edges) if t not in gone]
                kept_graph = SimpleGraph(part.vertices, kept) if gone else part
                _plane_cross_check(kept_graph, norm, True, rank)
        elif not is_rigid_generic(part, norm).rigid:
            problems.append(
                f"body {i} on vertices {list(b)} is not generically rigid for {norm}"
            )
    if problems:
        raise InputError("; ".join(problems))
    return m


def labeled_body_bar(m: MultiBodyGraph) -> MultiGraph:
    """Collapsed multigraph on stable labels (the least vertex of each body).

    Body indices shift as a structure grows, so nested-stage work needs the
    label that survives: bodies keep their least vertex across stages.
    """
    names = [b[0] for b in m.bodies]
    edges = m.collapsed.edges
    return MultiGraph(names, tuple((names[a], names[b]) for a, b in edges))


# ---- finite rigidity decision --------------------------------------------


@dataclass(frozen=True)
class TayVerdict:
    """Combinatorial rigidity verdict for a multi-body structure."""

    rigid: bool
    count: SparsityCount
    witness: MultiGraph | None = field(compare=False, default=None)
    cross_checked: bool = False


def tay_decide(m: MultiBodyGraph, norm: NormSpec, seed: int = 0) -> TayVerdict:
    """Decide rigidity through the collapsed multigraph's sparsity.

    Rigid exactly when the collapsed multigraph has a (k, k)-tight spanning
    subgraph, returned as the witness.  Read as a matroid statement, Tay's
    theorem also gives the generic rank of the structure: the body ranks
    norm.rigid_rank(n_i) plus the number of bars the pebble game accepts.
    At small sizes in dimension two or three the verdict is cross-checked
    against the numeric rank of the full structure at the seeded placement
    of is_rigid_generic; a non-integer q draws more (at most five) only
    until one reaches that prediction or norm.rigid_rank(n).  A rank above
    the prediction, a numeric verdict that disagrees with the count, or in
    the plane with the tight-spanning count of the whole graph, would mean a
    broken invariant and raises InconsistencyError.
    """
    if m.n_bodies < 2:
        raise InputError(f"need at least 2 bodies, got {m.n_bodies}")
    count = body_bar_count(norm)
    collapsed = m.collapsed
    accepted = PebbleGame.over(collapsed, count).accepted
    rigid = len(accepted) == count.target(m.n_bodies)
    witness = None
    if rigid:
        bars = tuple(collapsed.edges[t] for t in accepted)
        witness = MultiGraph(collapsed.vertices, bars)
    g = m.underlying
    checked = False
    if norm.d <= 3 and g.n_vertices <= _NUMERIC_CHECK_CAP:
        predicted = len(accepted) + sum(norm.rigid_rank(len(b)) for b in m.bodies)
        rank, _ = _best_placement(g, norm, seed, target=predicted)
        top = norm.rigid_rank(g.n_vertices)
        if rank > predicted:
            raise InconsistencyError(
                f"rank {rank} at a sampled placement exceeds the generic rank "
                f"{predicted} that the collapsed count predicts"
            )
        _plane_cross_check(g, norm, rank == top, rank)
        if (rank == top) != rigid:
            raise InconsistencyError(
                f"collapsed-count verdict {rigid} and numeric verdict "
                f"{rank == top} (rank {rank} of {top}) disagree"
            )
        checked = True
    return TayVerdict(rigid, count, witness, checked)


# ---- spanning tree decomposition -----------------------------------------


def spanning_tree_layers(gb: MultiGraph, d: int) -> tuple[int, ...]:
    """Assign every edge of a (d, d)-tight multigraph to one of d trees.

    Each forest is a (1, 1) PebbleGame.  An edge goes into a forest it
    keeps acyclic; when none does, a breadth-first search over blocking
    cycles finds the shortest chain of relocations that makes room.
    Tightness guarantees the process fills d spanning trees, which a final
    audit confirms.
    """
    if not is_sparse(gb, SparsityCount(d, d)).tight:
        raise InputError("multigraph is not (d, d)-tight")
    edges = gb.edges
    games = [PebbleGame(gb.vertices, SparsityCount(1, 1)) for _ in range(d)]
    # forest -> vertex pair -> edge (a forest holds no two parallel edges)
    held: list[dict[tuple[int, int], int]] = [{} for _ in range(d)]

    def place(idx: int, layer: int) -> None:
        if not games[layer].insert(*edges[idx]):
            raise AlgorithmError("tree decomposition moved an edge onto a cycle")
        held[layer][edges[idx]] = idx

    for idx in range(len(edges)):
        # edge -> (the edge whose cycle it lies on, the forest holding it);
        # the new edge is in no forest yet
        parent = {idx: (idx, -1)}
        queue = deque([idx])
        goal = None
        while queue and goal is None:
            x = queue.popleft()
            cycles = []
            for i in range(d):
                if i == parent[x][1]:
                    continue  # x's own forest: its cycle there is x alone
                path = games[i].tree_path(*edges[x])
                if path is None:
                    goal = (x, i)
                    break
                cycles.append((i, path))
            else:
                for i, path in cycles:
                    for a, b in zip(path, path[1:]):
                        y = held[i][(a, b) if a < b else (b, a)]
                        if y not in parent:
                            parent[y] = (x, i)
                            queue.append(y)
        if goal is None:
            raise AlgorithmError("tree decomposition stalled on a tight multigraph")
        # Walk the chain backwards: each edge moves into the forest its
        # successor vacated, and the new edge takes the last gap.
        x, target = goal
        while x != idx:
            back, vacated = parent[x]
            games[vacated].delete(*edges[x])
            del held[vacated][edges[x]]
            place(x, target)
            x, target = back, vacated
        place(idx, target)
    for i in range(d):
        if len(held[i]) != gb.n_vertices - 1:
            raise AlgorithmError("tree decomposition audit failed")
        comp = {v: v for v in gb.vertices}

        def find(a: int) -> int:
            while comp[a] != a:
                comp[a] = comp[comp[a]]
                a = comp[a]
            return a

        for a, b in held[i]:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise AlgorithmError("tree decomposition produced a cycle")
            comp[ra] = rb
    home = {e: i for i in range(d) for e in held[i].values()}
    return tuple(home[e] for e in range(len(edges)))


def nash_williams_trees(gb: MultiGraph, d: int) -> tuple[MultiGraph, ...]:
    """Partition a (d, d)-tight multigraph into d edge-disjoint spanning trees."""
    layers = spanning_tree_layers(gb, d)
    return tuple(
        MultiGraph(
            gb.vertices, tuple(e for e, lay in zip(gb.edges, layers) if lay == i)
        )
        for i in range(d)
    )


# ---- the special placement -----------------------------------------------


@dataclass(frozen=True)
class SpecialPlacementResult:
    """Constructed rigid placement of a multi-body structure.

    model is the structure that was placed, the one passed in, so the
    placement indexes its own vertex labels.  Layers give the spanning tree
    each bar was threaded along, aligned with model.inter_body_edges.
    """

    model: MultiBodyGraph
    placement: Placement = field(compare=False)
    report: FlexReport
    eps: float
    layers: tuple[int, ...]


def special_placement(
    m: MultiBodyGraph, norm: NormSpec, eps: float = 1e-2, seed: int = 0
) -> SpecialPlacementResult:
    """Explicit rigid placement for a tight structure, non-Euclidean norms.

    The structure itself is placed: random_placement draws every vertex
    uniformly from [-1, 1]^d, the collapsed multigraph is split into d
    spanning trees, and each bar (v, w) then gets p[w] = p[v] + eps along the
    coordinate axis of its tree.  No vertex carries two bars, so every
    body's points stay independent continuous draws (some shifted by a
    constant), and a generically rigid body keeps only the d translations.  Each bar row is
    supported on one coordinate, and the d trees tie those translations
    together, which forces the kernel down to the d translations.
    placement_rank certifies the rank as the placement is built (exactly mod
    PRIME for an integer q, by the SVD cutoff otherwise); a body that is not
    generically rigid (validate_multibody checks this), an unlucky draw or a
    too-large eps leaves it short, which raises PlacementError.  eps = 0
    would leave bar endpoints coincident, which is not a placement, and the
    construction has no Euclidean analogue; both are rejected up front.
    """
    if norm.euclidean:
        raise InputError("the special placement exists for non-Euclidean norms only")
    if not eps > 0:
        raise InputError("eps must be positive: coincident bar endpoints")
    d = norm.d
    g = m.underlying
    layers = spanning_tree_layers(m.collapsed, d)
    pts = random_placement(g, norm, seed).array_for(g).copy()
    # No vertex carries two bars, so the shifts can go in any order.
    idx = g.index_of
    ends = np.array([(idx[v], idx[w]) for v, w in m.inter_body_edges], dtype=np.intp)
    v, w = ends.reshape(-1, 2).T
    pts[w] = pts[v]
    pts[w, np.asarray(layers, dtype=np.intp)] += eps
    p = Placement.from_array(g, pts)
    rank, top = placement_rank(g, p, norm), norm.rigid_rank(g.n_vertices)
    if rank != top:
        raise PlacementError(
            f"special placement has rank {rank}, short of {top} "
            f"at eps={eps}; the bodies must be generically rigid for {norm} "
            "(validate_multibody checks this); reseed or pass a smaller eps"
        )
    return SpecialPlacementResult(m, p, report_at_rank(g, p, norm, rank), eps, layers)


# ---- independence ---------------------------------------------------------


def _independence_threshold(norm: NormSpec) -> int:
    return 2 * norm.trivial_dim_generic


def essentially_independent(m: MultiBodyGraph, norm: NormSpec, seed: int = 0) -> bool:
    """Whether the bar rows sit in direct sum with the body rows.

    Holds exactly when the collapsed multigraph is (k, k)-sparse.  At small
    sizes the verdict is cross-checked by ranks at a random placement: the
    full rank must equal the body ranks plus one per bar, bar rows being
    automatically independent thanks to their disjoint supports.
    """
    need = _independence_threshold(norm)
    n = m.underlying.n_vertices
    if n < need:
        raise InputError(f"needs at least {need} vertices for {norm}, got {n}")
    verdict = is_sparse(m.collapsed, body_bar_count(norm)).sparse
    if n <= _NUMERIC_CHECK_CAP:
        p = random_placement(m.underlying, norm, seed)
        total = placement_rank(m.underlying, p, norm)
        split = len(m.inter_body_edges)
        for part in m.body_subgraphs:
            split += _certified_rank(part, p, norm)[0]
        if (total == split) != verdict:
            raise InconsistencyError(
                "sparsity and direct-sum rank disagree on essential independence"
            )
    return verdict


# ---- relative rigidity and containers ------------------------------------


def rigid_container_multibody(
    g: MultiBodyGraph, h: MultiBodyGraph, norm: NormSpec
) -> MultiBodyGraph | None:
    """Rigid multi-body subgraph of g containing h, or None when none exists.

    The collapsed multigraph is thinned to an independent bar set, which
    preserves the structure's freedom; every pair of h's bodies must then be
    linked, by a surviving bar or by the tight collapsed subgraph blocking
    the pair's insertion.  A pair with neither decides the negative, and by
    the multi-body equivalence that is exactly the failure of relative
    rigidity, in any dimension and for either norm family.

    A pair whose bodies both lie in a closure already taken is skipped, as
    in towers.rigid_container_2d: that closure is tight and holds the pair,
    so it contains the pair's minimal tight closure, whose bodies and bars
    are already chosen.
    """
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
    taken: list[frozenset[int]] = []
    for a, b in combinations(anchors, 2):
        if any(a in c and b in c for c in taken):
            continue
        # Probing with one more parallel bar is legitimate for every pair,
        # adjacent or not, so each pair must be inside a tight subgraph.
        inside = game.blocker(a, b)
        if inside is None:
            return None
        taken.append(inside)
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


# ---- towers of multi-body structures -------------------------------------


# Multi-body towers are towers whose stages are multi-body structures.
MultiBodyTower = Tower


BODYBAR_TOWER_MINIMAL = "EssentiallyMinimallyRigid"


@dataclass(frozen=True)
class BodyBarTowerVerdict:
    """Outcome of the staged multi-body decision.

    tight_witness holds the nested tight collapsed subgraphs on stable body
    labels when the direct extraction succeeds; container_witness holds the
    per-pair rigid containers when the decision had to fall back on relative
    rigidity.  At most one of the two is present.
    """

    status: str
    tight_witness: tuple[MultiGraph, ...] | None = None
    container_witness: tuple[MultiBodyGraph, ...] | None = None


def bodybar_tower_decide(
    t: Tower, norm: NormSpec, seed: int = 0
) -> BodyBarTowerVerdict:
    """Certify a staged multi-body presentation through its collapsed graphs.

    Runs the planar tower decision on the collapsed multigraphs: each
    stage's collapsed multigraph must admit a (k, k)-tight spanning subgraph
    extending the previous witness.  A witness covering every body certifies
    Rigid, and EssentiallyMinimallyRigid when it also exhausts the reference
    bars, so that no bar could be spared.  When some stage has no tight
    spanning subgraph the decision falls back on rigid containers of
    consecutive pairs, which certify Rigid exactly when relative rigidity
    holds stage by stage and the containers reach every body; a missing
    container is confirmed at the final stage's seeded placement."""
    _require_kind(t, MultiBodyGraph, "bodybar_tower_decide", "tower_rigidity or laman_tower_decide")
    status, tight = _nested_witnesses(
        (labeled_body_bar(s) for s in t.stages),
        labeled_body_bar(t.reference),
        body_bar_count(norm),
    )
    if tight is not None:
        if status == LAMAN_TOWER_MINIMAL:
            status = BODYBAR_TOWER_MINIMAL
        return BodyBarTowerVerdict(status, tight_witness=tight)
    try:
        containers = _containers(
            zip(t.stages, t.stages[1:]),
            lambda small, large: rigid_container_multibody(large, small, norm),
            t.stages[-1],
            norm,
            seed,
            graph=lambda s: s.underlying,
        )
    except InputError:
        containers = None
    if not containers:  # a single stage, or a pair with no container
        return BodyBarTowerVerdict(LAMAN_TOWER_NOT)
    covered = {frozenset(b) for c in containers for b in c.bodies}
    reached = covered == {frozenset(b) for b in t.reference.bodies}
    return BodyBarTowerVerdict(
        LAMAN_TOWER_RIGID if reached else LAMAN_TOWER_NOT,
        container_witness=containers,
    )
