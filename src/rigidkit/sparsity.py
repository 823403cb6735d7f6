"""(k, l)-sparsity counting via the pebble game, with a brute-force oracle.

A graph is (k, l)-sparse when every subgraph on at least two vertices spans at
most k|V| - l edges, and tight when it is sparse and meets the count globally.
The pebble game decides this for any count with l < 2k, covering the (2, 3),
(2, 2) and (k, k) instances used elsewhere; parallel edges are handled, so the
same engine serves multigraphs.

One PebbleGame per graph answers every query on it.  The accepted edges are
the greedy matroid basis in input order, whatever pebbles moved on the way,
and witnesses do not depend on earlier queries: once no more pebbles can be
gathered on a pair, the pair holds exactly l, so its reach closure in the
pebble digraph is tight with no arc leaving it.  A tight subgraph containing
the pair holds the same l free pebbles and no leaving arc either, so it
contains the closure, which is thus the unique minimal one.

Queries on one graph go to its game, not to functions that rebuild one:
the greedy basis positions are `PebbleGame.over(g, count).accepted`, its
graph is g's edges at those positions, and the tight subgraph blocking a
pair v, w has the vertices `game.blocker(v, w)` and the accepted edges
among them.

A tower of nested graphs runs on one game too, each stage offering only
the edges it adds: a refused edge depends on the basis so far, so a fresh
game seeded with the previous basis would refuse it again.  `delete` drops
a held edge, so one game also follows a chain of construction moves, which
remove edges as well as add them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .errors import AlgorithmError, InputError, UnsupportedCountError
from .graphs import GraphLike, MultiGraph, induced_subgraph
from .norms import NormSpec

__all__ = [
    "SparsityCount",
    "LAMAN",
    "QNORM_2D",
    "planar_count",
    "SparsityReport",
    "PebbleGame",
    "is_sparse",
    "brute_force_sparse",
    "tight_spanning_subgraph",
    "augment_to_tight",
]


@dataclass(frozen=True)
class SparsityCount:
    """Pair (k, l) with 0 <= l < 2k."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UnsupportedCountError(f"k must be positive, got {self.k}")
        if not 0 <= self.l < 2 * self.k:
            raise UnsupportedCountError(
                f"count ({self.k},{self.l}) outside the supported range l < 2k"
            )

    @classmethod
    def parse(cls, text: str) -> "SparsityCount":
        parts = text.split(",")
        if len(parts) != 2:
            raise UnsupportedCountError(f"cannot parse sparsity count {text!r}")
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UnsupportedCountError(f"cannot parse sparsity count {text!r}") from exc
        return cls(k, l)

    def target(self, n_vertices: int) -> int:
        return self.k * n_vertices - self.l

    def __str__(self) -> str:
        return f"({self.k},{self.l})"


LAMAN = SparsityCount(2, 3)
QNORM_2D = SparsityCount(2, 2)


def planar_count(norm: NormSpec) -> SparsityCount:
    """The count whose tight spanning subgraphs characterize generic rigidity
    in the plane under norm: Laman's (2,3) for q = 2, (2,2) otherwise."""
    return LAMAN if norm.euclidean else QNORM_2D


@dataclass(frozen=True)
class SparsityReport:
    """Verdict of a sparsity check.

    The witness is some subgraph violating the count; it is present exactly
    when the graph is not sparse.  Violation certificates are not unique, so
    the witness does not take part in equality comparisons.
    """

    sparse: bool
    tight: bool
    witness: GraphLike | None = field(compare=False, default=None)


class PebbleGame:
    """Pebble digraph for one (k, l) count, built once per graph.

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
    def over(cls, g: GraphLike, count: SparsityCount) -> "PebbleGame":
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


def _sparse_game(g: GraphLike, count: SparsityCount) -> PebbleGame:
    game = PebbleGame.over(g, count)
    if len(game.accepted) != g.n_edges:
        raise InputError(f"graph is not {count}-sparse")
    return game


def is_sparse(g: GraphLike, count: SparsityCount) -> SparsityReport:
    """Run the pebble game over the edges of g in input order."""
    game = PebbleGame(g.vertices, count)
    for u, w in g.edges:
        if not game.insert(u, w):
            witness = induced_subgraph(g, game.blocker(u, w))
            return SparsityReport(sparse=False, tight=False, witness=witness)
    return SparsityReport(sparse=True, tight=g.n_edges == count.target(g.n_vertices))


def brute_force_sparse(g: GraphLike, count: SparsityCount) -> SparsityReport:
    """Check every vertex subset directly.  Oracle for small graphs only."""
    n = g.n_vertices
    if n > 12:
        raise InputError(f"brute force capped at 12 vertices, got {n}")
    vs = g.vertices
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 2:
            continue
        keep = {vs[i] for i in range(n) if mask >> i & 1}
        m = sum(1 for e in g.edges if e[0] in keep and e[1] in keep)
        if m > count.k * size - count.l:
            witness = induced_subgraph(g, keep)
            return SparsityReport(sparse=False, tight=False, witness=witness)
    return SparsityReport(sparse=True, tight=g.n_edges == count.target(n))


def tight_spanning_subgraph(g: GraphLike, count: SparsityCount) -> GraphLike | None:
    """Greedy basis of g in input order, or None when it is not tight (all
    bases of the count's matroid on g have the same size)."""
    game = PebbleGame.over(g, count)
    if len(game.accepted) != count.target(g.n_vertices):
        return None
    return type(g)(g.vertices, tuple(g.edges[i] for i in game.accepted))


def augment_to_tight(g: GraphLike, count: SparsityCount) -> GraphLike:
    """Grow a sparse graph to a tight one by adding admissible edges.

    Offers vertex pairs in lexicographic label order, in one pass over a
    single game: adding edges only ever blocks more pairs, so a pair refused
    once stays refused.  Simple graphs only gain fresh edges; multigraphs may
    gain parallel ones, so there a pair is offered again until refused.  The
    pass thus keeps a greedy basis of the count's matroid on g plus every
    offered pair, and when that basis falls short of the count no tight
    graph on these vertices contains g.
    """
    game = _sparse_game(g, count)
    allow_parallel = isinstance(g, MultiGraph)
    target = count.target(g.n_vertices)
    added: list[tuple[int, int]] = []
    for v, w in combinations(sorted(g.vertices), 2):
        if not allow_parallel and g.has_edge(v, w):
            continue
        while g.n_edges + len(added) < target and game.insert(v, w):
            added.append((v, w))
            if not allow_parallel:
                break
    if g.n_edges + len(added) != target:
        raise InputError(
            f"no {count}-tight graph on {g.n_vertices} vertices contains this one: "
            f"the count needs {target} edges, {g.n_edges + len(added)} fit"
        )
    return type(g)(g.vertices, g.edges + tuple(added))
