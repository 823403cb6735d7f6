"""Labelled graphs and nested graph towers.

Vertices are non-negative integer labels.  A graph's vertex tuple fixes the
presentation order used for matrix column layout; equality and hashing ignore
that order and compare the labelled vertex and edge sets.  Edges are stored as
(min, max) pairs and keep their construction order, which downstream
deterministic algorithms (pebble game, chain search) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, NestingError

__all__ = [
    "GraphLike",
    "MultiGraph",
    "SimpleGraph",
    "Tower",
    "complete_graph",
    "complete_graph_on",
    "cycle_graph",
    "graph_union",
    "induced_subgraph",
    "normalize_edge",
    "path_graph",
]


def normalize_edge(v: int, w: int) -> tuple[int, int]:
    if v == w:
        raise InputError(f"loop edge at vertex {v} is not allowed")
    return (v, w) if v < w else (w, v)


def _check_vertices(vertices: Sequence[int]) -> tuple[int, ...]:
    vs = tuple(int(v) for v in vertices)
    seen = set()
    for v in vs:
        if v < 0:
            raise InputError(f"vertex label {v} is negative")
        if v in seen:
            raise InputError(f"vertex label {v} repeated")
        seen.add(v)
    return vs


@dataclass(frozen=True, eq=False)
class _Graph:
    """Vertices and edges as SimpleGraph and MultiGraph both hold them."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        vs = _check_vertices(tuple(vertices))
        vset = set(vs)
        out = []
        for v, w in edges:
            e = normalize_edge(int(v), int(w))
            if e[0] not in vset or e[1] not in vset:
                raise InputError(f"edge {e} has an endpoint outside the vertex set")
            out.append(e)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(out))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Label -> position in the vertex tuple."""
        return {v: i for i, v in enumerate(self.vertices)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_vertices} vertices, {self.n_edges} edges)"


class SimpleGraph(_Graph):
    """Finite simple graph with ordered vertex labels."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        super().__init__(vertices, edges)
        if len(self.edge_set) < self.n_edges:
            seen: set[tuple[int, int]] = set()
            for e in self.edges:
                if e in seen:
                    raise InputError(f"edge {e} repeated")
                seen.add(e)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for v, w in self.edges:
            adj[v].append(w)
            adj[w].append(v)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def has_edge(self, v: int, w: int) -> bool:
        return normalize_edge(v, w) in self.edge_set

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertex_set == other.vertex_set and self.edge_set == other.edge_set

    def __hash__(self) -> int:
        return hash((self.vertex_set, self.edge_set))

    # ---- derived graphs ------------------------------------------------

    def without_vertex(self, v: int) -> "SimpleGraph":
        if v not in self.vertex_set:
            raise InputError(f"vertex {v} not present")
        return SimpleGraph(
            tuple(u for u in self.vertices if u != v),
            tuple(e for e in self.edges if v not in e),
        )

    def is_subgraph_of(self, other: "SimpleGraph") -> bool:
        return self.vertex_set <= other.vertex_set and self.edge_set <= other.edge_set


def induced_subgraph(g: GraphLike, vertices: Iterable[int]) -> GraphLike:
    """Subgraph on the given labels with every edge of g between them.

    Vertex and edge order follow the presentation order of g, and the
    result has g's type, so a multigraph keeps its parallel edges.
    """
    keep = set(vertices)
    missing = keep - g.vertex_set
    if missing:
        raise InputError(f"vertices {sorted(missing)} not in the graph")
    vs = tuple(v for v in g.vertices if v in keep)
    es = tuple(e for e in g.edges if e[0] in keep and e[1] in keep)
    return type(g)(vs, es)


def graph_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    vs = a.vertices + tuple(v for v in b.vertices if v not in a.vertex_set)
    es = a.edges + tuple(e for e in b.edges if e not in a.edge_set)
    return SimpleGraph(vs, es)


def complete_graph(n: int, offset: int = 0) -> SimpleGraph:
    return complete_graph_on(range(offset, offset + n))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return SimpleGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph_on(labels: Sequence[int]) -> SimpleGraph:
    ls = tuple(labels)
    es = [(ls[i], ls[j]) for i in range(len(ls)) for j in range(i + 1, len(ls))]
    return SimpleGraph(ls, es)


class MultiGraph(_Graph):
    """Graph with parallel edges; edge identity is positional.

    Loops are rejected: no supported sparsity count admits them.
    """

    def multiplicity(self, v: int, w: int) -> int:
        e = normalize_edge(v, w)
        return sum(1 for f in self.edges if f == e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.vertex_set == other.vertex_set and sorted(self.edges) == sorted(
            other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_set, tuple(sorted(self.edges))))


GraphLike = SimpleGraph | MultiGraph


@dataclass(frozen=True)
class Tower:
    """Increasing sequence of stages, optionally with a declared target.

    Stages are simple graphs, or multi-body structures for the staged
    body-bar decision (bodybar.MultiBodyTower names this class), all of one
    kind; another kind, such as MultiGraph, raises InputError.  Construction
    checks nesting by the stages' own is_subgraph_of (NestingError names the
    first stage not containing its predecessor, or depth - 1 for the
    target), so the reference, the declared target or else the final stage,
    holds every stage; vertex completeness is measured against it.
    """

    stages: tuple[SimpleGraph, ...]
    target: SimpleGraph | None = None

    def __init__(self, stages: Iterable[SimpleGraph], target: SimpleGraph | None = None):
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "target", target)
        if not self.stages:
            raise InputError("a tower needs at least one stage")
        kinds = {type(s).__name__ for s in self.stages + (() if target is None else (target,))}
        if len(kinds) > 1:
            raise InputError(f"a tower's stages and target mix {' and '.join(sorted(kinds))}")
        if not hasattr(self.stages[0], "is_subgraph_of"):
            kind = type(self.stages[0]).__name__
            raise InputError(f"a tower takes SimpleGraph or MultiBodyGraph stages, not {kind}")
        for k in range(self.depth - 1):
            if not self.stages[k].is_subgraph_of(self.stages[k + 1]):
                raise NestingError(k + 1, f"stage {k + 1} does not contain stage {k}")
        if target is not None and not self.stages[-1].is_subgraph_of(target):
            raise NestingError(self.depth - 1, "final stage is not contained in the target")

    @property
    def depth(self) -> int:
        return len(self.stages)

    @property
    def reference(self) -> SimpleGraph:
        """Graph the completeness flag is measured against."""
        return self.target if self.target is not None else self.stages[-1]

    @property
    def vertex_complete(self) -> bool:
        return self.stages[-1].vertex_set == self.reference.vertex_set
