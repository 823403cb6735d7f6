"""Construction moves on sparse graphs and chain search between nested
tight graphs.

Five move kinds are supported: vertex extension and edge move (both
parameterized by degree), the vertex-to-K4 and vertex-to-4-cycle expansions
used for (2,2)-tight graphs, and 3D vertex splitting.  Each move only ever
adds vertices, so a chain of moves is replayable forward from its start
graph.

A move is its edge edit: `edit()` gives the edges it drops and the edges it
adds, and every added edge meets a vertex the move adds.  A chain walks one
graph, held as an adjacency (vertex -> neighbour set) and an
insertion-ordered edge dict: one forward step checks a move and edits both
in place, and serves `apply_move`, `ConstructionChain.final` and `.stages`
and `verify_chain`.  A stage's `SimpleGraph` is built only where it is read.
The chain search and `verify_chain` play the same edit on one pebble game.

The chain search runs backward on one copy of the target's adjacency,
undoing one reducible vertex at a time; candidate reductions are scanned in
a fixed deterministic order (smallest labels first).  Every candidate is
checked for tightness on one game over the target, and none adds a vertex
of the start graph, so every reduction still contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import ClassVar, Collection, Iterator, Mapping, Sequence, Union

from .errors import AlgorithmError, InputError, MoveError
from .graphs import SimpleGraph, _check_vertices, normalize_edge
from .sparsity import LAMAN, QNORM_2D, PebbleGame, SparsityCount, _sparse_game, is_sparse

__all__ = [
    "EUCLIDEAN_MODE", "QNORM_MODE", "CHAIN_MODES", "count_for_mode", "Edit", "Move",
    "MOVE_CLASSES", "VertexExtension", "EdgeMove", "VertexToK4", "VertexTo4Cycle",
    "VertexSplit3D", "apply_move", "inverse_candidates", "ConstructionChain",
    "concatenate_chains", "ChainReport", "verify_chain", "find_chain",
]

EUCLIDEAN_MODE = "euclidean"
QNORM_MODE = "qnorm"
CHAIN_MODES = (EUCLIDEAN_MODE, QNORM_MODE)


def count_for_mode(mode: str) -> SparsityCount:
    if mode == EUCLIDEAN_MODE:
        return LAMAN
    if mode == QNORM_MODE:
        return QNORM_2D
    raise InputError(f"unknown chain mode {mode!r}; expected one of {CHAIN_MODES}")


# The edges a move drops from the graph it is applied to, and the edges it
# adds, each meeting a vertex the move adds.
Edit = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
# A graph walked in place: each vertex, in presentation order, with its
# neighbours.  The forward walk keeps the edges beside it, in order, as the
# keys of a dict.
_Adjacency = dict[int, set[int]]


def _has_edge(adj: Mapping[int, Collection[int]], v: int, w: int) -> bool:
    """Whether vw is an edge of adj; a loop raises InputError, as it does
    for any graph."""
    a, b = normalize_edge(v, w)
    return b in adj.get(a, ())


def _require_distinct(items: Sequence[int], what: str) -> None:
    if len(set(items)) != len(items):
        raise MoveError(f"{what} must be distinct, got {items}")


def _require_fresh(adj: _Adjacency, labels: Sequence[int]) -> None:
    clash = [v for v in labels if v in adj]
    if clash:
        raise MoveError(f"new vertex labels {clash} already present")


def _require_present(adj: _Adjacency, labels: Sequence[int]) -> None:
    missing = [v for v in labels if v not in adj]
    if missing:
        raise MoveError(f"referenced vertices {missing} not in the graph")


def _star(v: int, ws: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(normalize_edge(v, w) for w in ws)


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

    def _check(self, adj: _Adjacency) -> None:
        if not self.neighbors:
            raise MoveError("vertex extension needs at least one neighbor")
        _require_distinct(self.neighbors, "extension neighbors")
        _require_fresh(adj, [self.vertex])
        _require_present(adj, self.neighbors)

    def edit(self) -> Edit:
        return (), _star(self.vertex, self.neighbors)


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

    def _check(self, adj: _Adjacency) -> None:
        a, b = normalize_edge(*self.removed)
        if b not in adj.get(a, ()):
            raise MoveError(f"edge {self.removed} to remove is not present")
        _require_distinct(self.neighbors, "edge-move neighbors")
        if not {a, b} <= set(self.neighbors):
            raise MoveError("removed endpoints must be among the new neighbors")
        _require_fresh(adj, [self.vertex])
        _require_present(adj, self.neighbors)

    def edit(self) -> Edit:
        return (normalize_edge(*self.removed),), _star(self.vertex, self.neighbors)


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

    def _check(self, adj: _Adjacency) -> None:
        _require_present(adj, [self.base])
        _require_distinct(self.added, "vertex-to-K4 additions")
        _require_fresh(adj, self.added)
        seen = set()
        for x, target in self.reassigned:
            if x in seen:
                raise MoveError(f"endpoint {x} reassigned twice")
            seen.add(x)
            if not _has_edge(adj, self.base, x):
                raise MoveError(f"no edge {self.base}-{x} to reassign")
            if target not in self.added:
                raise MoveError(f"reassignment target {target} is not a new vertex")

    def edit(self) -> Edit:
        corner = (self.base, *self.added)
        added = tuple(normalize_edge(u, w) for u, w in combinations(corner, 2))
        added += tuple(normalize_edge(target, x) for x, target in self.reassigned)
        return _star(self.base, [x for x, _ in self.reassigned]), added


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

    def _check(self, adj: _Adjacency) -> None:
        na, nb = self.pair
        if na == nb:
            raise MoveError("4-cycle pair must be two distinct neighbors")
        for w in self.pair:
            if not _has_edge(adj, self.base, w):
                raise MoveError(f"no edge {self.base}-{w} at the 4-cycle base")
        _require_distinct(self.moved, "migrated endpoints")
        _require_fresh(adj, [self.vertex])
        bad = [w for w in self.moved if w in self.pair or not _has_edge(adj, self.base, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")

    def edit(self) -> Edit:
        return _star(self.base, self.moved), _star(self.vertex, (*self.pair, *self.moved))


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

    def _check(self, adj: _Adjacency) -> None:
        a2, a3 = self.anchors
        if a2 == a3:
            raise MoveError("anchors must be distinct")
        for w in self.anchors:
            if not _has_edge(adj, self.split, w):
                raise MoveError(f"anchor {w} is not a neighbor of {self.split}")
        _require_distinct(self.moved, "migrated endpoints")
        _require_fresh(adj, [self.vertex])
        bad = [w for w in self.moved if w in self.anchors or not _has_edge(adj, self.split, w)]
        if bad:
            raise MoveError(f"cannot migrate edges to {bad}")

    def edit(self) -> Edit:
        joined = (self.split, *self.anchors, *self.moved)
        return _star(self.split, self.moved), _star(self.vertex, joined)


Move = Union[VertexExtension, EdgeMove, VertexToK4, VertexTo4Cycle, VertexSplit3D]
MOVE_CLASSES: dict[str, type] = {
    cls.kind: cls
    for cls in (VertexExtension, EdgeMove, VertexToK4, VertexTo4Cycle, VertexSplit3D)
}


def apply_move(g: SimpleGraph, m: Move) -> SimpleGraph:
    """The graph m makes from g: g's edges less the dropped ones, then the
    added ones, on g's vertices followed by the new ones."""
    return ConstructionChain(g, (m,)).final


def _step(adj: _Adjacency, edges: dict[tuple[int, int], None], m: Move) -> None:
    """Check m against the graph adj and edges hold, then play its edit on
    both in place: the dropped edges leave, and the new vertices and the
    added edges join at the end."""
    if not isinstance(m, tuple(MOVE_CLASSES.values())):
        raise MoveError(f"unknown move {m!r}")
    m._check(adj)
    _check_vertices(m.vertices_added)
    dropped, added = m.edit()
    adj.update((v, set()) for v in m.vertices_added)
    for a, b in dropped:
        adj[a].remove(b)
        adj[b].remove(a)
        del edges[a, b]
    for a, b in added:
        adj[a].add(b)
        adj[b].add(a)
        edges[a, b] = None


def _exchange(game: PebbleGame, out: Edit, into: Edit) -> bool:
    """Delete the edges `out` from the game, then insert the edges `into`;
    True when the game accepts every insert.

    The chain search and verify_chain exchange only edges that keep the
    count's edge total for the vertices left, so on a game holding a tight
    graph the new graph is tight exactly when this returns True.  When an
    insert is refused the game is restored: the edges taken out were held,
    hence independent, so each is accepted again.
    """
    for e in out:
        game.delete(*e)
    for i, e in enumerate(into):
        if not game.insert(*e):
            for f in into[:i]:
                game.delete(*f)
            for f in out:
                game.insert(*f)
            return False
    return True


# ---- inverses ----------------------------------------------------------


def _edge_moves(adj: Mapping[int, Collection[int]], v: int) -> list[EdgeMove]:
    """Inverse edge moves at v, one per nonadjacent neighbor pair."""
    nbrs = tuple(sorted(adj[v]))
    return [
        EdgeMove(removed=(vi, vj), vertex=v, neighbors=nbrs)
        for vi, vj in combinations(nbrs, 2)
        if vj not in adj[vi]
    ]


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
    return [m for m in _edge_moves(g.adjacency, v) if game.admits(*m.removed)]


# ---- chains ------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionChain:
    start: SimpleGraph
    moves: tuple[Move, ...]

    def _walk(self) -> Iterator[tuple[_Adjacency, dict[tuple[int, int], None]]]:
        """The start graph, then the graph after each move, held in one
        adjacency and one edge dict that each move edits in place."""
        adj = {v: set(ws) for v, ws in self.start.adjacency.items()}
        edges = dict.fromkeys(self.start.edges)
        yield adj, edges
        for m in self.moves:
            _step(adj, edges, m)
            yield adj, edges

    @cached_property
    def stages(self) -> tuple[SimpleGraph, ...]:
        return tuple(SimpleGraph(*held) for held in self._walk())

    @cached_property
    def final(self) -> SimpleGraph:
        *_, held = self._walk()
        return SimpleGraph(*held)


def concatenate_chains(a: ConstructionChain, b: ConstructionChain) -> ConstructionChain:
    if a.final != b.start:
        raise InputError("chains do not meet: first ends where the second does not start")
    return ConstructionChain(a.start, a.moves + b.moves)


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    failure_stage: int | None = None
    reason: str | None = None
    final: SimpleGraph | None = None


def verify_chain(chain: ConstructionChain, mode: str) -> ChainReport:
    """Replay a chain, checking every move is legal for the mode and every
    intermediate graph is tight for the mode's count.

    One pebble game follows the whole chain: each move deletes its dropped
    edges and inserts its added ones.  An allowed move adds k more edges
    than it drops per new vertex, so a stage after a tight one is tight
    exactly when the game accepts all of them (`_exchange`).  The game
    holds every label the moves add from the start; a vertex no edge has
    reached yet keeps its k pebbles and takes part in no query.
    """
    count = count_for_mode(mode)
    allowed: tuple[type, ...] = (VertexExtension, EdgeMove)
    if mode == QNORM_MODE:
        allowed = allowed + (VertexToK4, VertexTo4Cycle)
    labels = chain.start.vertices + tuple(v for m in chain.moves for v in m.vertices_added)
    game = PebbleGame(labels, count)
    held = sum(game.insert(*e) for e in chain.start.edges)
    if not (held == chain.start.n_edges == count.target(chain.start.n_vertices)):
        return ChainReport(False, 0, "start graph is not tight")
    walk = chain._walk()
    adj, edges = next(walk)
    for i, m in enumerate(chain.moves, 1):
        if not isinstance(m, allowed):
            return ChainReport(False, i, f"move kind {m.kind} not allowed in {mode} mode")
        if isinstance(m, (VertexExtension, EdgeMove)) and m.degree != count.k:
            return ChainReport(False, i, f"move degree {m.degree} != {count.k}")
        try:
            next(walk)  # checks m and plays it on adj and edges
        except MoveError as exc:
            return ChainReport(False, i, str(exc))
        if not _exchange(game, *m.edit()):
            return ChainReport(False, i, "stage is not tight")
    return ChainReport(True, final=SimpleGraph(adj, edges))


def _contract_k4(adj: _Adjacency, block: frozenset[int], target: int) -> VertexToK4 | None:
    """The vertex-to-K4 move that recreates g from `block` contracted to
    `target`, or None when some outside vertex sees the block more than
    once, which a forward vertex-to-K4 move could not reproduce.
    """
    # (outside, inside) ends of the edges that leave the block
    crossing = [(y, x) for x in block for y in adj[x] if y not in block]
    if len({y for y, _ in crossing}) != len(crossing):
        return None
    return VertexToK4(
        base=target,
        added=tuple(sorted(block - {target})),
        reassigned=tuple(sorted((y, x) for y, x in crossing if x != target)),
    )


def _k4_candidates(
    adj: _Adjacency, g_from: SimpleGraph, block: frozenset[int]
) -> Iterator[Move]:
    overlap = sorted(block & g_from.vertex_set)
    if len(overlap) > 1:
        return
    for target in overlap or sorted(block):
        move = _contract_k4(adj, block, target)
        if move is not None:
            yield move


def _general_4cycle_contractions(adj: _Adjacency, v: int) -> Iterator[Move]:
    """Inverse 4-cycle moves that delete v itself: some non-neighbor base
    adjacent to two of v's neighbors absorbs v's remaining edges."""
    nbrs = sorted(adj[v])
    for vi, vj in combinations(nbrs, 2):
        others = tuple(w for w in nbrs if w not in (vi, vj))
        for base in sorted(adj[vi] & adj[vj] - adj[v] - {v}):
            if adj[base].isdisjoint(others):
                yield VertexTo4Cycle(base=base, pair=(vi, vj), vertex=v, moved=others)


def _qnorm_contractions(adj: _Adjacency, g_from: SimpleGraph, v: int) -> Iterator[Move]:
    """Contraction candidates at a degree-3 vertex whose neighborhood is
    complete.

    The two construction cases come first: an outside vertex seeing two of
    the three neighbors yields a 4-cycle contraction of that vertex into v,
    and with no such vertex the whole K4 collapses to one vertex.  Both can
    be poisoned when a start-graph vertex neighbors the block twice (the
    collapse would need a parallel edge), so contractions that delete v
    itself as the adjoined 4-cycle vertex are offered as a fallback.
    """
    nbr_set = adj[v]
    block = frozenset(nbr_set | {v})
    outside = sorted(adj.keys() - g_from.vertex_set - block)
    hinges = [w for w in outside if len(nbr_set & adj[w]) == 2]
    for w0 in hinges:
        vi, vj = sorted(nbr_set & adj[w0])
        others = tuple(u for u in sorted(adj[w0]) if u not in (vi, vj))
        if nbr_set.isdisjoint(others):
            yield VertexTo4Cycle(base=v, pair=(vi, vj), vertex=w0, moved=others)
    if not hinges:
        yield from _k4_candidates(adj, g_from, block)
    yield from _general_4cycle_contractions(adj, v)
    if hinges:
        yield from _k4_candidates(adj, g_from, block)


def _reductions_at(
    adj: _Adjacency, g_from: SimpleGraph, count: SparsityCount, mode: str, v: int
) -> Iterator[Move]:
    """Candidate inverse moves at v, in search order, each keeping the
    count's edge total.  None adds a vertex of g_from, so each reduction
    still contains g_from; the caller tests tightness on its game."""
    nbrs = tuple(sorted(adj[v]))
    if len(nbrs) == count.k:
        yield VertexExtension(vertex=v, neighbors=nbrs)
        return
    yield from _edge_moves(adj, v)
    if mode == QNORM_MODE and all(b in adj[a] for a, b in combinations(nbrs, 2)):
        yield from _qnorm_contractions(adj, g_from, v)


def find_chain(g_from: SimpleGraph, g_to: SimpleGraph, mode: str) -> ConstructionChain:
    """Construction chain from g_from to g_to, both tight for the mode.

    Runs backward from the target: pick the smallest-label reducible vertex
    outside g_from (degree k or k+1; every tight graph has one outside a
    non-spanning subgraph), apply the first inverse whose reduction is tight
    and still contains g_from, repeat.  One pebble game over g_to checks the
    target's tightness and follows the search: each candidate is undone on
    it (`_exchange`) and put back when its reduction is not tight.  The
    accepted one is undone on one copy of g_to's adjacency too.  The
    recorded chain replays forward to g_to exactly.
    """
    count = count_for_mode(mode)
    if not is_sparse(g_from, count).tight:
        raise InputError(f"start graph is not {count}-tight")
    game = PebbleGame.over(g_to, count)
    if not len(game.accepted) == g_to.n_edges == count.target(g_to.n_vertices):
        raise InputError(f"target graph is not {count}-tight")
    if not g_from.is_subgraph_of(g_to):
        raise InputError("start graph is not a subgraph of the target")
    adj = {v: set(ws) for v, ws in g_to.adjacency.items()}
    rev: list[Move] = []
    # g_from and every reduction are tight, and every reduction contains
    # g_from, so the search is done when no other vertex is left.
    while outside := sorted(adj.keys() - g_from.vertex_set):
        for v in outside:
            if len(adj[v]) not in (count.k, count.k + 1):
                continue
            # Undo each candidate on the game: its added edges go out and its
            # dropped ones back in.
            candidates = _reductions_at(adj, g_from, count, mode, v)
            found = next((m for m in candidates if _exchange(game, *m.edit()[::-1])), None)
            if found is not None:
                break
        else:
            raise AlgorithmError(
                "no reducible vertex admits a valid inverse move; "
                f"stuck at {len(adj)} vertices"
            )
        rev.append(found)
        for u in found.vertices_added:
            for w in adj.pop(u):
                adj[w].remove(u)
        for a, b in found.edit()[0]:
            adj[a].add(b)
            adj[b].add(a)
    chain = ConstructionChain(g_from, tuple(reversed(rev)))
    if chain.final != g_to:
        raise AlgorithmError("replayed chain does not reproduce the target")
    return chain
