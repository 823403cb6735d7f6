"""Relative rigidity and staged certification of countable graphs.

A subgraph h of g is relatively rigid when pinning h down completely leaves g
no extra freedom: the flex space of g at a generic placement must match that
of g with a complete graph glued over h's vertices.  A countable graph
presented as a finite tower of stages is certified rigid through relative
rigidity of every consecutive stage pair plus vertex completeness; in the
plane each certified pair additionally yields an explicit rigid container
subgraph, so a sequential certificate of nested rigid pieces can be built.
Every relative-rigidity decision a tower makes, at every q, is judged at one
seeded placement of its final stage, restricted to each stage.  For an
integer q its pairs are decided through the restriction maps between the
stages' flex spaces: one kernel basis mod PRIME is carried up the tower
(frameworks._Carry), so each stage ranks only the rows and vertices it adds
unless the flexes of the stage before would cost more to carry, and the
error bound is the union of the pairs' bounds.
No container construction is offered in higher dimensions, where relative
rigidity no longer implies a rigid container (the double-banana obstruction);
a capped exhaustive search is provided instead to exhibit such failures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from .errors import AlgorithmError, InconsistencyError, InputError
from .graphs import SimpleGraph, Tower, induced_subgraph
from .norms import NormSpec
from .sparsity import PebbleGame, SparsityCount, planar_count

# numpy and frameworks load inside the functions that compute ranks, so the
# pebble-game decisions (laman_tower_decide, rigid_container_2d) never load them.
if TYPE_CHECKING:
    from .frameworks import Placement, VelocityField

__all__ = [
    "anchor_threshold",
    "RelativeRigidityVerdict",
    "TowerVerdict",
    "LamanTowerVerdict",
    "TOWER_RIGID",
    "TOWER_FLEXIBLE",
    "TOWER_UNDECIDED",
    "LAMAN_TOWER_RIGID",
    "LAMAN_TOWER_MINIMAL",
    "LAMAN_TOWER_NOT",
    "relative_rigidity",
    "rigid_container_2d",
    "tower_rigidity",
    "sequential_rigidity_2d",
    "laman_tower_decide",
    "exhaustive_rigid_container",
    "relatively_rigid_subsequence",
]


def anchor_threshold(norm: NormSpec) -> int:
    """Fewest anchor vertices for which pinning the anchor is the same as
    gluing a complete graph over it.

    relative_rigidity counts on the complete graph over the anchor being
    rigid at its placement, so that pinning it leaves exactly its trivial
    motions.  Complete graphs on two or more vertices are rigid in every
    Euclidean space; outside the Euclidean case the smallest rigid one is
    K_{2d}.
    """
    return 2 if norm.euclidean else 2 * norm.d


@dataclass(frozen=True)
class RelativeRigidityVerdict:
    """Outcome of comparing a graph's freedom with and without its anchor
    pinned.  The witness flex, present only on failure, is a unit kernel
    element of the ambient graph that moves the anchor nontrivially; it is
    built on first read, by _witness."""

    relatively_rigid: bool
    nullity_graph: int
    nullity_anchored: int
    placement: Placement = field(compare=False)
    _witness: Callable[[], VelocityField] = field(compare=False, repr=False)

    @cached_property
    def witness_flex(self) -> VelocityField | None:
        return None if self.relatively_rigid else self._witness()


def _witness_flex(
    g: SimpleGraph, h: SimpleGraph, p: Placement, norm: NormSpec, rank_g: int
) -> VelocityField:
    """The unit flex of g that moves h farthest from a rigid motion.

    The rows F of g's nontrivial flex basis (report_at_rank) are orthonormal
    and, with g's rigid motions, span g's kernel; on h a motion of g is a
    motion of h.  With F_h their columns on h and P the projector onto h's
    rigid motions, the flexes rigid on h are thus c F for c in the left null
    space of F_h (I - P), and the top left singular vector c of F_h (I - P)
    gives c F: a unit flex orthogonal to them that moves h by the top
    singular value.
    """
    import numpy as np

    from .frameworks import report_at_rank, trivial_motion_basis

    report = report_at_rank(g, p, norm, rank_g)
    flexes = np.array([f.ravel() for f in report.nontrivial_flex_basis])
    in_h = [v in h.vertex_set for v in g.vertices]
    # h's vertices in g's order, so the motion basis lines up with F_h.
    triv = trivial_motion_basis(
        SimpleGraph([v for v, keep in zip(g.vertices, in_h) if keep], ()), p, norm
    )
    f_h = flexes[:, np.repeat(in_h, norm.d)]
    u, s, _ = np.linalg.svd(f_h - (f_h @ triv.T) @ triv, full_matrices=False)
    if s[0] < 1e-8:
        raise AlgorithmError("nullity gap reported but no separating flex found")
    vec = (u[:, 0] @ flexes).reshape(g.n_vertices, norm.d)
    return {v: vec[i].copy() for i, v in enumerate(g.vertices)}


def _check_anchor(h: SimpleGraph, norm: NormSpec) -> None:
    need = anchor_threshold(norm)
    if h.n_vertices < need:
        raise InputError(
            f"relative rigidity for {norm} needs at least {need} anchor "
            f"vertices, got {h.n_vertices}"
        )


def _nullities(
    norm: NormSpec, n_h: int, n_g: int, rank_g: int, rank_pinned: int
) -> tuple[int, int]:
    """g's nullity and its anchored nullity (see relative_rigidity), from
    g's rank and its rank with h's columns deleted."""
    nullity_g = norm.d * n_g - rank_g
    nullity_a = norm.trivial_dim_at(n_h) + norm.d * (n_g - n_h) - rank_pinned
    if nullity_a > nullity_g:
        raise InconsistencyError(
            f"anchored nullity {nullity_a} exceeds graph nullity {nullity_g}"
        )
    return nullity_g, nullity_a


def _relative_at(
    g: SimpleGraph, h: SimpleGraph, p: Placement, norm: NormSpec
) -> RelativeRigidityVerdict:
    """relative_rigidity at p, a placement of g or of a graph containing g."""
    import numpy as np

    from .frameworks import pinned_ranks

    _check_anchor(h, norm)
    free = np.array([v not in h.vertex_set for v in g.vertices], dtype=bool)
    rank_g, rank_pinned = pinned_ranks(g, p, norm, free)
    nullity_g, nullity_a = _nullities(norm, h.n_vertices, g.n_vertices, rank_g, rank_pinned)
    return RelativeRigidityVerdict(
        nullity_a == nullity_g, nullity_g, nullity_a, p, lambda: _witness_flex(g, h, p, norm, rank_g)
    )


def relative_rigidity(
    g: SimpleGraph, h: SimpleGraph, norm: NormSpec, seed: int = 0
) -> RelativeRigidityVerdict:
    """Decide whether h is relatively rigid in g.

    The anchored nullity is that of g with a complete graph K_h glued over
    h, computed by pinning h instead.  Once h has anchor_threshold vertices,
    K_h is rigid at a generic placement, so the anchored kernel is the
    trivial motions T plus the flexes of g that vanish on h, and
    nullity_anchored = dim(T restricted to h) + d(n - |h|) - r_pinned,
    where r_pinned is the rank of g's rigidity matrix with h's columns
    deleted, and the norm gives dim(T restricted to h) at a sampled
    placement.  Both ranks come from one seeded random placement of g, by
    pinned_ranks: exact mod PRIME for an integer q, by the SVD cutoff
    otherwise.  Each falls below its generic value with probability at most
    r(q-1)/PRIME, r that value, so for an integer q either verdict is wrong
    with probability at most (r_g + r_pinned)(q-1)/PRIME.  Since the
    anchored kernel lies inside g's, an anchored nullity above g's can only
    come from such a shortfall and raises InconsistencyError.  A failing
    verdict's witness is built on first read, from g's flex report at the
    same placement and rank.
    """
    from .frameworks import random_placement

    if not h.is_subgraph_of(g):
        raise InputError("h must be a subgraph of g")
    return _relative_at(g, h, random_placement(g, norm, seed), norm)


# ---- planar rigid containers --------------------------------------------


def rigid_container_2d(g: SimpleGraph, h: SimpleGraph, q) -> SimpleGraph | None:
    """Construct a rigid subgraph of g containing h, or report none exists.

    Works over the plane only: g is first thinned to an independent edge set
    (dropping the latest edge of every dependency, which preserves the flex
    space), then every vertex pair of h must be linked, either by a surviving
    edge or by the tight subgraph that blocks the pair's insertion.  The
    union of those links with h is rigid exactly when h is relatively rigid
    in g, so a single missing blocker decides the negative.

    A pair whose ends both lie in a closure already taken is skipped: that
    closure is a tight subgraph holding the pair, so it contains the pair's
    minimal tight closure (see the sparsity module), whose vertices and
    edges are thus already in the container.  Such a pair is never the
    missing blocker either, so neither verdict nor the order of the
    container's vertices and edges changes."""
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
    # Ordered sets: the accepted edges in game order, and the container,
    # which lists h first, then each link as it comes.
    kept = dict.fromkeys(g.edges[i] for i in game.accepted)
    vs, es = dict.fromkeys(h.vertices), dict.fromkeys(h.edges)
    taken: list[frozenset[int]] = []
    for v, w in combinations(sorted(h.vertex_set), 2):
        if any(v in c and w in c for c in taken):
            continue
        if (v, w) in kept:
            es[(v, w)] = None
            continue
        closure = game.blocker(v, w)
        if closure is None:
            return None
        taken.append(closure)
        vs.update(dict.fromkeys(x for x in g.vertices if x in closure))
        es.update(dict.fromkeys(e for e in kept if closure.issuperset(e)))
    return SimpleGraph(vs, es)


# ---- tower decisions -----------------------------------------------------


TOWER_RIGID = "RigidCertified"
TOWER_FLEXIBLE = "FlexibleCertified"
TOWER_UNDECIDED = "Undecided"


@dataclass(frozen=True)
class TowerVerdict:
    """Certification outcome for a staged presentation.

    relatively_rigid_prefix counts the stages, starting from the first, whose
    consecutive pairs all passed; a rigid certificate needs the prefix to
    span the whole presentation and the presentation to be vertex-complete.
    """

    status: str
    relatively_rigid_prefix: int
    stage_count: int
    vertex_complete: bool


def _require_kind(t: Tower, kind: type, name: str, instead: str) -> None:
    # A tower's stages are of one kind, so its first stage names it.
    if not isinstance(t.stages[0], kind):
        raise InputError(f"{name} takes a tower of {kind.__name__} stages; use {instead}")


def _consecutive_pairs(t: Tower) -> list[tuple[int, int]]:
    # A finite presentation (one stage, or a final stage equal to the declared
    # target) is read as the constant tower from its final stage on, so that
    # stage is also tested against its own completion rather than waved
    # through vacuously.
    pairs = [(k, k + 1) for k in range(t.depth - 1)]
    if t.depth == 1 or t.stages[-1] == t.target:
        pairs.append((t.depth - 1, t.depth - 1))
    return pairs


class _CarriedTower:
    """Relative rigidity of stage pairs (k, j), k <= j, of a tower at one
    seeded placement p of the final stage: by _relative_at, or at an integer
    q on one _Carry at p, each test stepping from stage k, which must be the
    stage the last passing test reached (stage 0 at first)."""

    def __init__(self, t: Tower, norm: NormSpec, seed: int):
        from .frameworks import _Carry, random_placement

        self.stages, self.norm, self.seed = t.stages, norm, seed
        self.p = random_placement(t.stages[-1], norm, seed)
        self.carry = _Carry(t.stages, self.p, norm) if norm.q_is_integer else None
        self.at = None if self.carry is None else self.carry.first()

    def passes(self, k: int, j: int) -> bool:
        if self.carry is None:
            return _relative_at(self.stages[j], self.stages[k], self.p, self.norm).relatively_rigid
        assert self.at.index == k
        pinned, large = self.carry.step(self.at, j)
        nullity_g, nullity_a = _nullities(self.norm, self.at.n, large.n, large.rank, pinned)
        if nullity_a == nullity_g:
            self.at = large
        return nullity_a == nullity_g

    def final_rigid(self) -> bool:
        """Whether the final stage is rigid: off the carry, cross-checked in the
        plane as is_rigid_generic is, else by is_rigid_generic at the seed."""
        if self.carry is None:
            from .frameworks import is_rigid_generic

            return is_rigid_generic(self.stages[-1], self.norm, seed=self.seed).rigid
        last = len(self.carry.sizes) - 1
        stage = self.at if self.at.index == last else self.carry.step(self.at, last)[1]
        return self.carry.rigid(stage, self.stages[-1])


def tower_rigidity(t: Tower, norm: NormSpec, seed: int = 0) -> TowerVerdict:
    """Certify a staged presentation rigid, flexible, or neither.

    Rigidity needs every tested stage pair relatively rigid plus vertex
    completeness.  The pairs are the consecutive stages, and a finite
    presentation (one stage, or a final stage equal to the declared target)
    also pairs its final stage with itself, so that stage must be rigid.

    Every pair, at every q, is decided at one seeded placement of the final
    stage, restricted to each stage (a generic placement of the union
    restricts to a generic placement of every stage).  For an integer q the
    pairs run on one _Carry up the tower: each stage ranks only the rows and
    vertices it adds, against the kernel mod PRIME of the stage before (see
    relative_rigidity for the nullities), unless that stage's flexes would
    cost more to carry than ranking the next stage afresh.  Each pair's
    verdict is wrong with probability at most (r_g + r_pinned)(q-1)/PRIME,
    so the tower's with at most the sum of these over its pairs.  The
    Flexible check reads the final stage's nullity from the same carry; in
    the plane it is cross-checked against the tight-spanning count, as
    is_rigid_generic's verdict is, and a disagreement (a rank that fell
    short at the placement) raises InconsistencyError, as is_rigid_generic
    on the final stage at the same seed, which ranks that placement, would.
    Memory stays at d n nullity int64 entries for the stages that are not
    certified rigid; a rigid stage reads its rigid motions.  Any other q
    ranks each pair by the SVD cutoff, and the Flexible check runs
    is_rigid_generic at the same seed, whose first placement is that one.

    A tower with no declared target has two readings, one per verdict.  For
    Rigid it is a truncated presentation of the countable graph it builds:
    the final stage is not tested against itself, so flexible stages each
    pinned by the next certify rigid, as in the banana tower.  For Flexible
    it is finite: when a pair fails, a flexible final stage is the whole
    graph and certifies Flexible, so Tower([C4, C4]) is Flexible, while
    Tower([C4, C4, K4]), whose final stage is rigid, stays Undecided.  With
    a declared target beyond the final stage a failing pair always leaves
    the verdict Undecided."""
    _require_kind(t, SimpleGraph, "tower_rigidity", "bodybar_tower_decide")
    try:
        _check_anchor(t.stages[0], norm)
    except InputError as err:
        raise InputError(f"stage 1: {err}") from None
    pairs = _CarriedTower(t, norm, seed)
    prefix = 1
    all_rigid = True
    for k, j in _consecutive_pairs(t):
        if not pairs.passes(k, j):
            all_rigid = False
            break
        prefix = j + 1
    vc = t.vertex_complete
    if all_rigid and vc:
        return TowerVerdict(TOWER_RIGID, prefix, t.depth, vc)
    finite = t.target is None or t.stages[-1] == t.target
    if not all_rigid and finite and not pairs.final_rigid():
        return TowerVerdict(TOWER_FLEXIBLE, prefix, t.depth, vc)
    return TowerVerdict(TOWER_UNDECIDED, prefix, t.depth, vc)


def _containers(pairs, container, final, norm, seed, graph=lambda s: s) -> tuple | None:
    """Rigid containers of the (small, large) stage pairs, or None.

    container(small, large) builds one or returns None.  A missing container
    is confirmed at the seeded placement of graph(final): containers exist
    exactly when graph(small) is relatively rigid in graph(large), so a
    relatively rigid pair without one raises InconsistencyError."""
    out = []
    for k, (small, large) in enumerate(pairs):
        c = container(small, large)
        if c is None:
            from .frameworks import random_placement

            p = random_placement(graph(final), norm, seed)
            if _relative_at(graph(large), graph(small), p, norm).relatively_rigid:
                raise InconsistencyError(
                    f"stage {k + 1}: relatively rigid but no container found"
                )
            return None
        out.append(c)
    return tuple(out)


def sequential_rigidity_2d(
    t: Tower, q, seed: int = 0
) -> tuple[SimpleGraph, ...] | None:
    """Nested rigid subgraphs H_k with G_k inside H_k inside G_{k+1}.

    The stage pairs are those of tower_rigidity, so a finite presentation
    ends with its final stage as its own container.  Returns None when some
    tested pair is not relatively rigid at the final stage's seeded
    placement; a relatively rigid pair with no container violates the planar
    equivalence itself, and the failure escalates."""
    _require_kind(t, SimpleGraph, "sequential_rigidity_2d", "bodybar_tower_decide")
    return _containers(
        [(t.stages[k], t.stages[j]) for k, j in _consecutive_pairs(t)],
        lambda small, large: rigid_container_2d(large, small, q),
        t.stages[-1],
        NormSpec(2, q),
        seed,
    )


LAMAN_TOWER_RIGID = "Rigid"
LAMAN_TOWER_MINIMAL = "MinimallyRigid"
LAMAN_TOWER_NOT = "NotCertified"


@dataclass(frozen=True)
class LamanTowerVerdict:
    status: str
    witness: tuple[SimpleGraph, ...] | None = None


def _nested_witnesses(
    stages, reference, count: SparsityCount
) -> tuple[str, tuple | None]:
    """Status and nested tight spanning witnesses of a staged presentation.

    The stages are simple graphs or multigraphs.  One pebble game over the
    reference's vertices runs the tower: each stage offers, in its own
    order, the multiset of edges it adds, and its witness is the edges
    accepted so far.  A refused edge depends on the previous witness, so a
    fresh game seeded with that witness would refuse it again.  A stage
    short of tight gives NotCertified with no witness; the last witness
    must reach every vertex of the reference (else NotCertified), and is
    MinimallyRigid when it equals the reference, Rigid otherwise.
    """
    game = PebbleGame(reference.vertices, count)
    kept: list[tuple[int, int]] = []
    witness = []
    earlier: Counter = Counter()
    for stage in stages:
        for e in stage.edges:
            if earlier[e]:
                earlier[e] -= 1
            elif game.insert(*e):
                kept.append(e)
        if len(kept) != count.target(stage.n_vertices):
            return LAMAN_TOWER_NOT, None
        witness.append(type(stage)(stage.vertices, tuple(kept)))
        earlier = Counter(stage.edges)
    last = witness[-1]
    if last.vertex_set != reference.vertex_set:
        status = LAMAN_TOWER_NOT
    elif last == reference:
        status = LAMAN_TOWER_MINIMAL
    else:
        status = LAMAN_TOWER_RIGID
    return status, tuple(witness)


def laman_tower_decide(t: Tower, q) -> LamanTowerVerdict:
    """Planar tower decision through nested tight spanning subgraphs.

    Each stage must admit a tight spanning subgraph extending the previous
    stage's witness, all on one pebble game; the count is (2,3) for the
    Euclidean exponent and (2,2) otherwise.  A nested witness spanning every
    stage certifies Rigid, and MinimallyRigid when the witnesses also
    exhaust the reference edge set."""
    _require_kind(t, SimpleGraph, "laman_tower_decide", "bodybar_tower_decide")
    count = planar_count(NormSpec(2, q))
    return LamanTowerVerdict(*_nested_witnesses(t.stages, t.reference, count))


# ---- exhaustive container search ----------------------------------------


_EXHAUSTIVE_CAP = 12


def exhaustive_rigid_container(
    g: SimpleGraph, h: SimpleGraph, norm: NormSpec, seed: int = 0
) -> SimpleGraph | None:
    """Search every vertex superset of h for a rigid induced container.

    Any rigid subgraph containing h induces a rigid subgraph on its own
    vertex set, so induced candidates suffice.  Exponential in the number of
    vertices outside h, hence the hard cap."""
    from .frameworks import is_rigid_generic

    if g.n_vertices > _EXHAUSTIVE_CAP:
        raise InputError(
            f"exhaustive container search capped at {_EXHAUSTIVE_CAP} vertices, "
            f"got {g.n_vertices}"
        )
    if not h.is_subgraph_of(g):
        raise InputError("h must be a subgraph of g")
    base = tuple(sorted(h.vertex_set))
    rest = sorted(g.vertex_set - h.vertex_set)
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            cand = induced_subgraph(g, base + extra)
            if is_rigid_generic(cand, norm, seed=seed).rigid:
                return cand
    return None


def relatively_rigid_subsequence(
    t: Tower, norm: NormSpec, seed: int = 0
) -> tuple[int, ...]:
    """Greedy forward scan for stage indices forming a relatively rigid
    subsequence.  Returns 0-based indices into t.stages starting at 0; no
    minimality of the gaps is claimed.  A first stage too small to anchor
    ends the scan there; any other InputError reaches the caller.

    Every pair, at every q, is decided at one seeded placement of the final
    stage, as in tower_rigidity.  For an integer q the pairs run on one
    _Carry: each stage j tried from stage k ranks the rows and vertices it
    adds against k's kernel mod PRIME, built once (or afresh, when k's
    flexes would cost more).  The result is wrong with probability at most
    the sum of the tried pairs' bounds (r_g + r_pinned)(q-1)/PRIME, and only
    stages that are not certified rigid hold d n nullity int64 entries.  Any
    other q ranks each pair at the same placement by the SVD cutoff."""
    _require_kind(t, SimpleGraph, "relatively_rigid_subsequence", "bodybar_tower_decide")
    # The stages nest, so stage 0 anchors worst.
    if t.stages[0].n_vertices < anchor_threshold(norm):
        return (0,)
    pairs = _CarriedTower(t, norm, seed)
    chosen = [0]
    while chosen[-1] < t.depth - 1:
        k = chosen[-1]
        j = next((j for j in range(k + 1, t.depth) if pairs.passes(k, j)), None)
        if j is None:
            break
        chosen.append(j)
    return tuple(chosen)
