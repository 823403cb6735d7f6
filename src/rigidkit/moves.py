"""Construction moves on sparse graphs and chain search between nested
tight graphs.

Five move kinds are supported: vertex extension and edge move (both
parameterized by degree), the vertex-to-K4 and vertex-to-4-cycle expansions
used for (2,2)-tight graphs, and 3D vertex splitting.  Each move only ever
adds vertices, so a chain of moves is replayable forward from its start
graph.  The chain search runs backward, contracting the target one
reducible vertex at a time; candidate reductions are scanned in a fixed
deterministic order (smallest labels first).  Inverse vertex extensions and
edge moves are tight and nested by construction; each (2,2) contraction is
validated for tightness and nesting before being committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import ClassVar, Iterator, Sequence, Union

from .errors import AlgorithmError, InputError, MoveError
from .graphs import SimpleGraph, normalize_edge
from .sparsity import LAMAN, QNORM_2D, SparsityCount, _sparse_game, is_sparse

EUCLIDEAN_MODE = "euclidean"
QNORM_MODE = "qnorm"
CHAIN_MODES = (EUCLIDEAN_MODE, QNORM_MODE)


def count_for_mode(mode: str) -> SparsityCount:
    if mode == EUCLIDEAN_MODE:
        return LAMAN
    if mode == QNORM_MODE:
        return QNORM_2D
    raise InputError(f"unknown chain mode {mode!r}; expected one of {CHAIN_MODES}")


def _require_distinct(items: Sequence[int], what: str) -> None:
    if len(set(items)) != len(items):
        raise MoveError(f"{what} must be distinct, got {items}")


def _require_fresh(g: SimpleGraph, labels: Sequence[int]) -> None:
    clash = [v for v in labels if v in g.vertex_set]
    if clash:
        raise MoveError(f"new vertex labels {clash} already present")


def _require_present(g: SimpleGraph, labels: Sequence[int]) -> None:
    missing = [v for v in labels if v not in g.vertex_set]
    if missing:
        raise MoveError(f"referenced vertices {missing} not in the graph")


@dataclass(frozen=True)
class VertexExtension:
    """Adjoin a fresh vertex joined to `neighbors` (degree = their count)."""

    kind: ClassVar[str] = "vertex_ext"
    vertex: int
    neighbors: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def vertices_added(self) -> tuple[int, ...]:
        return (self.vertex,)

    def apply(self, g: SimpleGraph) -> SimpleGraph:
        if not self.neighbors:
            raise MoveError("vertex extension needs at least one neighbor")
        _require_distinct(self.neighbors, "extension neighbors")
        _require_fresh(g, [self.vertex])
        _require_present(g, self.neighbors)
        return g.with_vertex(self.vertex).with_edges(
            [(self.vertex, w) for w in self.neighbors]
        )


@dataclass(frozen=True)
class EdgeMove:
    """Remove `removed` and adjoin a fresh vertex joined to `neighbors`,
    which must include both removed endpoints (degree = count - 1)."""

    kind: ClassVar[str] = "edge_move"
    removed: tuple[int, int]
    vertex: int
    neighbors: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.neighbors) - 1

    @property
    def vertices_added(self) -> tuple[int, ...]:
        return (self.vertex,)

    def apply(self, g: SimpleGraph) -> SimpleGraph:
        a, b = normalize_edge(*self.removed)
        if (a, b) not in g.edge_set:
            raise MoveError(f"edge {self.removed} to remove is not present")
        _require_distinct(self.neighbors, "edge-move neighbors")
        if not {a, b} <= set(self.neighbors):
            raise MoveError("removed endpoints must be among the new neighbors")
        _require_fresh(g, [self.vertex])
        _require_present(g, self.neighbors)
        return (
            g.without_edge(a, b)
            .with_vertex(self.vertex)
            .with_edges([(self.vertex, w) for w in self.neighbors])
        )


@dataclass(frozen=True)
class VertexToK4:
    """Blow `base` up into a K4 on `base` plus three fresh vertices.

    `reassigned` lists (endpoint, target) pairs: the edge base-endpoint is
    replaced by target-endpoint for a target among the fresh vertices;
    unlisted edges at base stay put.
    """

    kind: ClassVar[str] = "vertex_to_k4"
    base: int
    added: tuple[int, int, int]
    reassigned: tuple[tuple[int, int], ...] = ()

    @property
    def vertices_added(self) -> tuple[int, ...]:
        return self.added

    def apply(self, g: SimpleGraph) -> SimpleGraph:
        _require_present(g, [self.base])
        _require_distinct(self.added, "vertex-to-K4 additions")
        _require_fresh(g, self.added)
        seen = set()
        for x, target in self.reassigned:
            if x in seen:
                raise MoveError(f"endpoint {x} reassigned twice")
            seen.add(x)
            if not g.has_edge(self.base, x):
                raise MoveError(f"no edge {self.base}-{x} to reassign")
            if target not in self.added:
                raise MoveError(f"reassignment target {target} is not a new vertex")
        dropped = {normalize_edge(self.base, x) for x, _ in self.reassigned}
        edges = [e for e in g.edges if e not in dropped]
        corner = (self.base, *self.added)
        edges.extend(normalize_edge(u, w) for u, w in combinations(corner, 2))
        edges.extend(normalize_edge(target, x) for x, target in self.reassigned)
        return SimpleGraph(g.vertices + self.added, edges)


@dataclass(frozen=True)
class VertexTo4Cycle:
    """Split `base` across the edges to `pair`, adjoining `vertex` joined to
    both pair members; edges base-w for w in `moved` migrate to the new
    vertex.  Base, pair, and the new vertex form a 4-cycle."""

    kind: ClassVar[str] = "vertex_to_4cycle"
    base: int
    pair: tuple[int, int]
    vertex: int
    moved: tuple[int, ...] = ()

    @property
    def vertices_added(self) -> tuple[int, ...]:
        return (self.vertex,)

    def apply(self, g: SimpleGraph) -> SimpleGraph:
        na, nb = self.pair
        if na == nb:
            raise MoveError("4-cycle pair must be two distinct neighbors")
        for w in self.pair:
            if not g.has_edge(self.base, w):
                raise MoveError(f"no edge {self.base}-{w} at the 4-cycle base")
        _require_distinct(self.moved, "migrated endpoints")
        _require_fresh(g, [self.vertex])
        bad = [w for w in self.moved if w in self.pair or not g.has_edge(self.base, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")
        dropped = {normalize_edge(self.base, w) for w in self.moved}
        edges = [e for e in g.edges if e not in dropped]
        edges.append(normalize_edge(self.vertex, na))
        edges.append(normalize_edge(self.vertex, nb))
        edges.extend(normalize_edge(self.vertex, w) for w in self.moved)
        return SimpleGraph(g.vertices + (self.vertex,), edges)


@dataclass(frozen=True)
class VertexSplit3D:
    """3D vertex split: adjoin `vertex` joined to `split` and to the two
    anchors (both neighbors of `split`); edges split-w for w in `moved`
    migrate to the new vertex."""

    kind: ClassVar[str] = "vertex_split_3d"
    split: int
    anchors: tuple[int, int]
    vertex: int
    moved: tuple[int, ...] = ()

    @property
    def vertices_added(self) -> tuple[int, ...]:
        return (self.vertex,)

    def apply(self, g: SimpleGraph) -> SimpleGraph:
        a2, a3 = self.anchors
        if a2 == a3:
            raise MoveError("anchors must be distinct")
        for w in self.anchors:
            if not g.has_edge(self.split, w):
                raise MoveError(f"anchor {w} is not a neighbor of {self.split}")
        _require_distinct(self.moved, "migrated endpoints")
        _require_fresh(g, [self.vertex])
        bad = [w for w in self.moved if w in self.anchors or not g.has_edge(self.split, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")
        dropped = {normalize_edge(self.split, w) for w in self.moved}
        edges = [e for e in g.edges if e not in dropped]
        edges.append(normalize_edge(self.vertex, self.split))
        edges.append(normalize_edge(self.vertex, a2))
        edges.append(normalize_edge(self.vertex, a3))
        edges.extend(normalize_edge(self.vertex, w) for w in self.moved)
        return SimpleGraph(g.vertices + (self.vertex,), edges)


Move = Union[VertexExtension, EdgeMove, VertexToK4, VertexTo4Cycle, VertexSplit3D]
MOVE_CLASSES: dict[str, type] = {
    cls.kind: cls
    for cls in (VertexExtension, EdgeMove, VertexToK4, VertexTo4Cycle, VertexSplit3D)
}


def apply_move(g: SimpleGraph, m: Move) -> SimpleGraph:
    if not isinstance(m, tuple(MOVE_CLASSES.values())):
        raise MoveError(f"unknown move {m!r}")
    return m.apply(g)


# ---- inverses ----------------------------------------------------------


def inverse_candidates(g: SimpleGraph, count: SparsityCount, v: int) -> list[Move]:
    """Forward moves that would recreate g from a one-vertex reduction at v.

    Degree k gives the unique vertex extension.  Degree k+1 gives one edge
    move per nonadjacent neighbor pair whose reinsertion into g minus v is
    unblocked (no tight subgraph of the reduction contains both).  A
    reduction that is not (k,l)-sparse raises InputError.
    """
    if v not in g.vertex_set:
        raise InputError(f"vertex {v} not in the graph")
    nbrs = g.neighbors(v)
    deg = len(nbrs)
    if deg == count.k:
        return [VertexExtension(vertex=v, neighbors=nbrs)]
    if deg != count.k + 1:
        raise InputError(
            f"vertex {v} has degree {deg}; inverses exist only for degree "
            f"{count.k} or {count.k + 1}"
        )
    game = _sparse_game(g.without_vertex(v), count)
    return [
        EdgeMove(removed=(vi, vj), vertex=v, neighbors=nbrs)
        for vi, vj in combinations(nbrs, 2)
        if not g.has_edge(vi, vj) and game.admits(vi, vj)
    ]


# ---- chains ------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionChain:
    start: SimpleGraph
    moves: tuple[Move, ...]

    @cached_property
    def stages(self) -> tuple[SimpleGraph, ...]:
        out = [self.start]
        for m in self.moves:
            out.append(apply_move(out[-1], m))
        return tuple(out)

    @property
    def final(self) -> SimpleGraph:
        return self.stages[-1]


def concatenate_chains(a: ConstructionChain, b: ConstructionChain) -> ConstructionChain:
    if a.final != b.start:
        raise InputError("chains do not meet: first ends where the second does not start")
    return ConstructionChain(a.start, a.moves + b.moves)


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    stages: tuple[SimpleGraph, ...]
    failure_stage: int | None = None
    reason: str | None = None

    @property
    def final(self) -> SimpleGraph | None:
        return self.stages[-1] if self.ok else None


def verify_chain(chain: ConstructionChain, mode: str) -> ChainReport:
    """Replay a chain, checking every move is legal for the mode and every
    intermediate graph is tight for the mode's count."""
    count = count_for_mode(mode)
    allowed: tuple[type, ...] = (VertexExtension, EdgeMove)
    if mode == QNORM_MODE:
        allowed = allowed + (VertexToK4, VertexTo4Cycle)
    stages = [chain.start]
    if not is_sparse(chain.start, count).tight:
        return ChainReport(False, tuple(stages), 0, "start graph is not tight")
    for i, m in enumerate(chain.moves):
        if not isinstance(m, allowed):
            return ChainReport(
                False, tuple(stages), i + 1, f"move kind {m.kind} not allowed in {mode} mode"
            )
        if isinstance(m, (VertexExtension, EdgeMove)) and m.degree != count.k:
            return ChainReport(
                False, tuple(stages), i + 1, f"move degree {m.degree} != {count.k}"
            )
        try:
            nxt = apply_move(stages[-1], m)
        except MoveError as exc:
            return ChainReport(False, tuple(stages), i + 1, str(exc))
        stages.append(nxt)
        if not is_sparse(nxt, count).tight:
            return ChainReport(False, tuple(stages), i + 1, "stage is not tight")
    return ChainReport(True, tuple(stages))


def _require_tight(g: SimpleGraph, count: SparsityCount, name: str) -> None:
    if not is_sparse(g, count).tight:
        raise InputError(f"{name} graph is not ({count.k},{count.l})-tight")


def _valid_reduction(
    reduced: SimpleGraph, g_from: SimpleGraph, count: SparsityCount
) -> bool:
    return g_from.is_subgraph_of(reduced) and is_sparse(reduced, count).tight


def _k4_block(g: SimpleGraph, v: int) -> frozenset[int]:
    return frozenset((v,) + g.neighbors(v))


def _contract_k4(g: SimpleGraph, block: frozenset[int], target: int):
    """Contract a complete 4-block to `target`.

    Returns (reduced graph, reassignment records) or None when some outside
    vertex sees the block more than once, which a forward vertex-to-K4 move
    could not reproduce.
    """
    reassigned = []
    edges = []
    for a, b in g.edges:
        ina, inb = a in block, b in block
        if ina and inb:
            continue
        if ina or inb:
            inside, outside = (a, b) if ina else (b, a)
            if inside != target:
                reassigned.append((outside, inside))
            edges.append(normalize_edge(target, outside))
        else:
            edges.append((a, b))
    if len(set(edges)) != len(edges):
        return None
    vertices = tuple(u for u in g.vertices if u == target or u not in block)
    reduced = SimpleGraph(vertices, edges)
    move = VertexToK4(
        base=target,
        added=tuple(sorted(block - {target})),
        reassigned=tuple(sorted(reassigned)),
    )
    return reduced, move


def _k4_candidates(
    cur: SimpleGraph, g_from: SimpleGraph, block: frozenset[int]
) -> Iterator[tuple[Move, SimpleGraph]]:
    overlap = sorted(block & g_from.vertex_set)
    if len(overlap) > 1:
        return
    targets = overlap if overlap else sorted(block)
    for target in targets:
        got = _contract_k4(cur, block, target)
        if got is not None:
            yield got[1], got[0]


def _general_4cycle_contractions(
    cur: SimpleGraph, v: int
) -> Iterator[tuple[Move, SimpleGraph]]:
    """Inverse 4-cycle moves that delete v itself: some non-neighbor base
    adjacent to two of v's neighbors absorbs v's remaining edges."""
    nbrs = cur.neighbors(v)
    closed = set(nbrs) | {v}
    for vi, vj in combinations(nbrs, 2):
        others = tuple(w for w in nbrs if w not in (vi, vj))
        for base in sorted(cur.vertex_set - closed):
            if not (cur.has_edge(base, vi) and cur.has_edge(base, vj)):
                continue
            if any(cur.has_edge(base, w) for w in others):
                continue
            reduced = cur.without_vertex(v).with_edges([(base, w) for w in others])
            yield VertexTo4Cycle(base=base, pair=(vi, vj), vertex=v, moved=others), reduced


def _qnorm_contractions(
    cur: SimpleGraph, g_from: SimpleGraph, v: int
) -> Iterator[tuple[Move, SimpleGraph]]:
    """Contraction candidates at a degree-3 vertex whose neighborhood is
    complete.

    The two construction cases come first: an outside vertex seeing two of
    the three neighbors yields a 4-cycle contraction of that vertex into v,
    and with no such vertex the whole K4 collapses to one vertex.  Both can
    be poisoned when a start-graph vertex neighbors the block twice (the
    collapse would need a parallel edge), so contractions that delete v
    itself as the adjoined 4-cycle vertex are offered as a fallback.
    """
    nbr_set = set(cur.neighbors(v))
    block = _k4_block(cur, v)
    hinges = [
        w
        for w in sorted(cur.vertex_set - g_from.vertex_set - block)
        if len(nbr_set & set(cur.neighbors(w))) == 2
    ]
    for w0 in hinges:
        vi, vj = sorted(nbr_set & set(cur.neighbors(w0)))
        others = tuple(u for u in cur.neighbors(w0) if u not in (vi, vj))
        if any(cur.has_edge(v, u) for u in others):
            continue
        reduced = cur.without_vertex(w0).with_edges([(v, u) for u in others])
        yield VertexTo4Cycle(base=v, pair=(vi, vj), vertex=w0, moved=others), reduced
    if not hinges:
        yield from _k4_candidates(cur, g_from, block)
    yield from _general_4cycle_contractions(cur, v)
    if hinges:
        yield from _k4_candidates(cur, g_from, block)


def _reductions_at(
    cur: SimpleGraph, g_from: SimpleGraph, count: SparsityCount, mode: str, v: int
) -> Iterator[tuple[Move, SimpleGraph]]:
    """Valid reductions of the tight graph cur at v, outside g_from.

    The Henneberg inverses come from inverse_candidates and need no check.
    Deleting v keeps g_from, which avoids v.  An inverse vertex extension
    leaves a subgraph of cur with k(n-1)-l edges; an inverse edge move
    leaves one edge fewer plus a pair the pebble game admits on cur - v.
    Either is sparse with k(n-1)-l edges, hence tight.  Only the (2,2)
    contractions, tried at degree k+1, are tested.
    """
    for m in inverse_candidates(cur, count, v):
        reduced = cur.without_vertex(v)
        yield m, reduced.with_edges([m.removed]) if isinstance(m, EdgeMove) else reduced
    if (
        mode == QNORM_MODE
        and cur.degree(v) == count.k + 1
        and all(cur.has_edge(a, b) for a, b in combinations(cur.neighbors(v), 2))
    ):
        for move, reduced in _qnorm_contractions(cur, g_from, v):
            if _valid_reduction(reduced, g_from, count):
                yield move, reduced


def find_chain(g_from: SimpleGraph, g_to: SimpleGraph, mode: str) -> ConstructionChain:
    """Construction chain from g_from to g_to, both tight for the mode.

    Runs backward from the target: pick the smallest-label reducible vertex
    outside g_from (degree k or k+1; every tight graph has one outside a
    non-spanning subgraph), apply the first inverse whose reduction is tight
    and still contains g_from, repeat.  The recorded chain replays forward
    to g_to exactly.
    """
    count = count_for_mode(mode)
    _require_tight(g_from, count, "start")
    _require_tight(g_to, count, "target")
    if not g_from.is_subgraph_of(g_to):
        raise InputError("start graph is not a subgraph of the target")
    rev: list[Move] = []
    cur = g_to
    while cur != g_from:
        for v in sorted(cur.vertex_set - g_from.vertex_set):
            if not (count.k <= cur.degree(v) <= 2 * count.k - 1):
                continue
            found = next(_reductions_at(cur, g_from, count, mode, v), None)
            if found is not None:
                break
        else:
            raise AlgorithmError(
                "no reducible vertex admits a valid inverse move; "
                f"stuck at {cur.n_vertices} vertices"
            )
        move, cur = found
        rev.append(move)
    chain = ConstructionChain(g_from, tuple(reversed(rev)))
    if chain.final != g_to:
        raise AlgorithmError("replayed chain does not reproduce the target")
    return chain
