"""Named graph families with their stock placements.

Each generator returns either a bare graph or a GeneratedFamily carrying a
placement and, for the surfaces, hole metadata.  Each works out its edge
count from its parameters in closed form first, refuses a family of more
than MAX_FAMILY_EDGES edges before building anything, and re-checks the
count after construction, so a broken generator fails loudly instead of
leaking a malformed family into an analysis.  Only whirlpool_blocks,
which returns arrays, loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import AlgorithmError, InputError
from .graphs import SimpleGraph, complete_graph, cycle_graph
from .norms import NormSpec
from .placements import Placement

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GeneratedFamily",
    "MAX_FAMILY_EDGES",
    "SimplicialMeta",
    "add_shafts",
    "available_families",
    "banana_tower",
    "complete",
    "cycle",
    "diamond",
    "double_banana",
    "generate",
    "octa_pointed",
    "simplicial_flex_dim",
    "simplicial_holes",
    "strip",
    "tetra_refined",
    "whirlpool",
    "whirlpool_blocks",
    "whirlpool_exact_points",
]


@dataclass(frozen=True)
class GeneratedFamily:
    """A generated graph plus whatever stock data the family defines."""

    graph: SimpleGraph
    placement: Placement | None = None
    meta: SimplicialMeta | None = None


@dataclass(frozen=True)
class SimplicialMeta:
    """Hole bookkeeping for a triangulated surface.

    connectivity counts the non-triangular faces, hole_cycles their boundary
    lengths, refinement the number of accumulation ends the infinite version
    of the family would have.
    """

    connectivity: int
    hole_cycles: tuple[int, ...]
    refinement: int

    def __init__(self, connectivity: int, hole_cycles: Sequence[int], refinement: int):
        object.__setattr__(self, "connectivity", int(connectivity))
        object.__setattr__(self, "hole_cycles", tuple(int(c) for c in hole_cycles))
        object.__setattr__(self, "refinement", int(refinement))
        problems = []
        if self.connectivity < 0:
            problems.append("connectivity must be non-negative")
        if len(self.hole_cycles) != self.connectivity:
            problems.append(
                f"{self.connectivity} holes declared but "
                f"{len(self.hole_cycles)} cycle lengths given"
            )
        if any(c < 4 for c in self.hole_cycles):
            problems.append("hole cycles must have length at least 4")
        if self.refinement < 1:
            problems.append("refinement must be positive")
        if self.connectivity > self.refinement:
            problems.append("connectivity cannot exceed refinement")
        if problems:
            raise InputError("; ".join(problems))


# The most edges a generator builds; every family grows without bound in
# its parameters, and a graph this size already takes seconds to build.
MAX_FAMILY_EDGES = 1_000_000


def _bounded(edges: int, family: str) -> int:
    """A family's edge count, refused above MAX_FAMILY_EDGES."""
    if edges > MAX_FAMILY_EDGES:
        raise InputError(
            f"{family} would have more than {MAX_FAMILY_EDGES} edges, "
            "the most the catalog builds"
        )
    return edges


def _check_edges(g: SimpleGraph, expected: int, family: str) -> None:
    if g.n_edges != expected:
        raise AlgorithmError(
            f"{family} generator self-check failed: "
            f"{g.n_edges} edges, expected {expected}"
        )


def complete(n: int) -> SimpleGraph:
    if n < 1:
        raise InputError(f"complete graph needs a positive order, got {n}")
    _bounded(n * (n - 1) // 2, "complete")
    return complete_graph(n)


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {n}")
    _bounded(n, "cycle")
    return cycle_graph(n)


# ---- bananas --------------------------------------------------------------


def _banana(attach: tuple[int, int], fresh: int) -> list[tuple[int, int]]:
    """All edges of a near-complete block on the attach pair plus three new
    vertices, leaving the attach pair itself unjoined."""
    group = [attach[0], attach[1], fresh, fresh + 1, fresh + 2]
    return [
        (a, b)
        for i, a in enumerate(group)
        for b in group[i + 1 :]
        if (a, b) != attach
    ]


def banana_tower(stages: int) -> SimpleGraph:
    """Chained near-complete 5-blocks; each new block cancels the previous
    flex while bringing one of its own.

    Stage 1 is the classic two-block counterexample.  Stage 2 bridges the
    free tips, stage 3 and later hang off the top vertex of the previous
    block and an alternating hub of the original shared pair, which keeps
    the hub clear of the axis the previous block still swings around.
    """
    if stages < 1:
        raise InputError(f"banana tower needs at least one stage, got {stages}")
    expected = _bounded(9 * stages + 9, "banana_tower")
    edges = _banana((6, 7), 0) + _banana((6, 7), 3)
    for n in range(2, stages + 1):
        fresh = 3 * (n - 1) + 5
        if n == 2:
            attach = (2, 5)
        else:
            hub = 7 if n % 2 else 6
            attach = (hub, fresh - 1)
        edges += _banana(attach, fresh)
    g = SimpleGraph(range(3 * stages + 5), edges)
    _check_edges(g, expected, "banana_tower")
    return g


def double_banana() -> SimpleGraph:
    return banana_tower(1)


# ---- strips ---------------------------------------------------------------


def strip(
    cells: int,
    mode: str = "radial",
    spacing: float | None = None,
    shear: float | None = None,
) -> GeneratedFamily:
    """Three-row strip: a free chain on top, a braced ladder underneath.

    Cell k holds vertices 3k (top), 3k+1 (middle), 3k+2 (bottom), joined in
    a column; consecutive cells are joined row-wise with one extra diagonal
    in the lower ladder.  The radial placement stacks the columns vertically
    at x = 2^-(k+1) with the rows on the lines y = x, y = 0 and y = -x, so
    the whole top row can drift horizontally; the periodic placement repeats
    a column sheared by `shear` (default 0.3) every `spacing` (default 1).
    Only the periodic placement reads them, so the radial one refuses them.
    """
    if cells < 1:
        raise InputError(f"strip needs at least one cell, got {cells}")
    expected = _bounded(7 * cells - 4, "strip")
    edges = []
    for k in range(cells):
        t, m, c = 3 * k, 3 * k + 1, 3 * k + 2
        edges += [(t, m), (m, c), (t, c)]
        if k + 1 < cells:
            edges += [(t, t + 3), (m, m + 3), (c, c + 3), (m, c + 3)]
    g = SimpleGraph(range(3 * cells), edges)
    _check_edges(g, expected, "strip")
    coords: dict[int, tuple[float, float]] = {}
    if mode == "radial":
        if spacing is not None or shear is not None:
            raise InputError("strip's radial placement takes no spacing or shear")
        for k in range(cells):
            x = 2.0 ** -(k + 1)
            coords[3 * k] = (x, x)
            coords[3 * k + 1] = (x, 0.0)
            coords[3 * k + 2] = (x, -x)
    elif mode == "periodic":
        spacing = 1.0 if spacing is None else spacing
        shear = 0.3 if shear is None else shear
        for k in range(cells):
            x = k * spacing
            coords[3 * k] = (x + 2 * shear, 2.0)
            coords[3 * k + 1] = (x + shear, 1.0)
            coords[3 * k + 2] = (x, 0.0)
    else:
        raise InputError(f"unknown strip placement mode {mode!r}")
    return GeneratedFamily(g, Placement(2, coords))


# ---- whirlpools -----------------------------------------------------------

_WHIRL_OUTER = ((3, 3), (-3, 3), (-3, -3), (3, -3))
_WHIRL_INNER = ((1, 2), (-2, 1), (-1, -2), (2, -1))


def _whirl_step(pt: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    x, y = pt
    return (Fraction(x + 2 * y, 3), Fraction(2 * x + y, 3))


def _whirl_rings(layers: int) -> Iterator[list[tuple[Fraction, Fraction]]]:
    """The exact corners of square 0, 1, ..., layers, one square at a time."""
    yield [(Fraction(x), Fraction(y)) for x, y in _WHIRL_OUTER]
    ring = [(Fraction(x), Fraction(y)) for x, y in _WHIRL_INNER]
    for _ in range(layers):
        yield ring
        ring = [_whirl_step(pt) for pt in ring]


def whirlpool_exact_points(layers: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Rational coordinates of the nested-squares placement.

    The two outermost squares are fixed; every deeper square is the image of
    the previous one under the averaging map that contracts toward the spin
    centre.
    """
    if layers < 0:
        raise InputError(f"layers must be non-negative, got {layers}")
    rings = enumerate(_whirl_rings(layers))
    return {4 * k + i: pt for k, ring in rings for i, pt in enumerate(ring)}


def whirlpool(layers: int) -> GeneratedFamily:
    """Nested squares joined by spokes, spiralling toward one point.

    Vertices 4k..4k+3 form square k; edges come ring-first (outermost ring,
    then each deeper ring followed by its spokes), so the first twelve edges
    of the two-square instance are the reference ordering used by
    whirlpool_blocks.  The squares close in on the line x = y at rate 3^-k,
    so from square 35 on two corners round to one double-precision point:
    such a layer count is refused as soon as that square is placed, before
    the exact denominators grow further.
    """
    if layers < 0:
        raise InputError(f"layers must be non-negative, got {layers}")
    expected = _bounded(8 * layers + 4, "whirlpool")
    coords: dict[int, tuple[float, float]] = {}
    for k, ring in enumerate(_whirl_rings(layers)):
        coords.update((4 * k + i, (float(x), float(y))) for i, (x, y) in enumerate(ring))
        if len(set(coords.values())) < len(coords):
            raise InputError(f"whirlpool layer {k} rounds two vertices to one point")
    edges = []
    for k in range(layers + 1):
        base = 4 * k
        edges += [(base + i, base + (i + 1) % 4) for i in range(4)]
        if k:
            edges += [(base - 4 + i, base + i) for i in range(4)]
    g = SimpleGraph(range(4 * (layers + 1)), edges)
    _check_edges(g, expected, "whirlpool")
    return GeneratedFamily(g, Placement(2, coords))


def _length_row(
    row: np.ndarray, v: int, w: int, pts: dict[int, tuple[Fraction, Fraction]]
) -> None:
    diff = (pts[v][0] - pts[w][0], pts[v][1] - pts[w][1])
    for axis in range(2):
        if diff[axis].denominator != 1:
            raise AlgorithmError("reference block entry is not an integer")
        row[2 * v + axis] = int(diff[axis])
        row[2 * w + axis] = -int(diff[axis])


def whirlpool_blocks(layers: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer blocks of the two outermost squares' rigidity matrix.

    Returns (outer ring, inner ring, spoke) blocks, each 4 x 8, in the
    reference edge order.  The spoke rows act with opposite sign on the
    inner square; the caller reassembles [[R1, 0], [0, R2], [X, -X]].
    """
    import numpy as np

    if layers < 1:
        raise InputError("the block decomposition needs at least one inner square")
    pts = whirlpool_exact_points(1)
    full = np.zeros((12, 16), dtype=np.int64)
    for i in range(4):
        _length_row(full[i], i, (i + 1) % 4, pts)
        _length_row(full[4 + i], 4 + i, 4 + (i + 1) % 4, pts)
        _length_row(full[8 + i], i, 4 + i, pts)
    r1 = full[0:4, 0:8].copy()
    r2 = full[4:8, 8:16].copy()
    x = full[8:12, 0:8].copy()
    if not np.array_equal(full[8:12, 8:16], -x):
        raise AlgorithmError("spoke block is not antisymmetric between the squares")
    return r1, r2, x


# ---- pointed polytopes ----------------------------------------------------


def _between(a: Sequence[float], b: Sequence[float], t: float) -> tuple[float, ...]:
    """The point (1 - t) a + t b."""
    return tuple((1 - t) * x + t * y for x, y in zip(a, b))


def tetra_refined(levels: int) -> GeneratedFamily:
    """Triangle of latitudes climbing a pyramid toward its apex.

    Level k adds a triangle at height 1 - 2^-k along the three slant edges;
    every face stays triangular, so each instance is a closed simplicial
    surface.
    """
    if levels < 0:
        raise InputError(f"levels must be non-negative, got {levels}")
    expected = _bounded(9 * levels + 6, "tetra_refined")
    apex = 3 * levels + 3
    edges = []
    for k in range(levels + 1):
        base = 3 * k
        edges += [(base + i, base + (i + 1) % 3) for i in range(3)]
        if k:
            edges += [(base - 3 + i, base + i) for i in range(3)]
            edges += [(base - 3 + i, base + (i + 1) % 3) for i in range(3)]
    edges += [(3 * levels + i, apex) for i in range(3)]
    g = SimpleGraph(range(3 * levels + 4), edges)
    _check_edges(g, expected, "tetra_refined")
    top = (0.0, 0.0, 1.0)
    corners = [
        (math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3), 0.0)
        for i in range(3)
    ]
    coords = {apex: top}
    for k in range(levels + 1):
        t = 2.0**-k
        for i in range(3):
            coords[3 * k + i] = _between(top, corners[i], t)
    return GeneratedFamily(
        g, Placement(3, coords), SimplicialMeta(0, (), 1)
    )


def octa_pointed(levels: int) -> GeneratedFamily:
    """Double cone over a square, refined by square latitudes toward the
    north pole.  Latitude vertices sit on the slant edges, so the placement
    is convex with collinear runs rather than strictly convex."""
    if levels < 0:
        raise InputError(f"levels must be non-negative, got {levels}")
    expected = _bounded(12 * levels + 12, "octa_pointed")
    south = 0
    north = 4 * levels + 5
    edges = [(south, 1 + i) for i in range(4)]
    for k in range(levels + 1):
        base = 4 * k + 1
        edges += [(base + i, base + (i + 1) % 4) for i in range(4)]
        if k:
            edges += [(base - 4 + i, base + i) for i in range(4)]
            edges += [(base - 4 + i, base + (i + 1) % 4) for i in range(4)]
    edges += [(4 * levels + 1 + i, north) for i in range(4)]
    g = SimpleGraph(range(4 * levels + 6), edges)
    _check_edges(g, expected, "octa_pointed")
    top = (0.0, 0.0, 1.0)
    equator = [
        (math.cos(math.pi * i / 2), math.sin(math.pi * i / 2), 0.0) for i in range(4)
    ]
    coords = {south: (0.0, 0.0, -1.0), north: top}
    for k in range(levels + 1):
        t = 2.0**-k
        for i in range(4):
            coords[4 * k + 1 + i] = _between(top, equator[i], t)
    return GeneratedFamily(
        g, Placement(3, coords), SimplicialMeta(0, (), 1)
    )


def diamond(levels: int) -> GeneratedFamily:
    """Latitudes doubling in size up a sphere from a single bottom point.

    The top latitude is left open, so the surface has one hole whose cycle
    doubles with each level and the flexibility grows without bound along
    the family.
    """
    if levels < 1:
        raise InputError(f"diamond needs at least one level, got {levels}")
    # Capping the power refuses a huge level count without computing
    # 2**levels; past 64 levels the count is far beyond the bound anyway.
    expected = _bounded(10 * 2 ** min(levels, 64) - 12, "diamond")
    starts = {k: 1 + 4 * (2 ** (k - 1) - 1) for k in range(1, levels + 2)}
    size = lambda k: 2 ** (k + 1)  # noqa: E731
    edges = [(0, 1 + i) for i in range(4)]
    for k in range(1, levels + 1):
        s, m = starts[k], size(k)
        edges += [(s + i, s + (i + 1) % m) for i in range(m)]
        if k < levels:
            s2, m2 = starts[k + 1], size(k + 1)
            for i in range(m):
                edges += [
                    (s + i, s2 + (2 * i) % m2),
                    (s + i, s2 + (2 * i + 1) % m2),
                    (s + i, s2 + (2 * i + 2) % m2),
                ]
    g = SimpleGraph(range(1 + 4 * (2**levels - 1)), edges)
    _check_edges(g, expected, "diamond")
    coords = {0: (0.0, 0.0, -1.0)}
    for k in range(1, levels + 1):
        z = 1.0 - 2.0 ** (1 - k)
        r = math.sqrt(1.0 - z * z)
        m = size(k)
        for i in range(m):
            angle = 2 * math.pi * i / m
            coords[starts[k] + i] = (r * math.cos(angle), r * math.sin(angle), z)
    meta = SimplicialMeta(1, (2 ** (levels + 1),), 1)
    return GeneratedFamily(g, Placement(3, coords), meta)


# ---- drums with holes -----------------------------------------------------


def _band(start_a: int, n: int, start_b: int, m: int) -> list[tuple[int, int]]:
    """Triangulated annulus between two cycles, n + m edges."""
    edges = [(start_a, start_b)]
    i = j = 0
    while i < n or j < m:
        if j >= m or (i < n and (i + 1) * m <= (j + 1) * n):
            i += 1
        else:
            j += 1
        edges.append((start_a + i % n, start_b + j % m))
    return list(dict.fromkeys(edges))


def simplicial_holes(meta: SimplicialMeta, size: int) -> GeneratedFamily:
    """Capped drum of latitude rings with up to two caps removed.

    size counts the rings.  With no holes every ring is a square and the
    drum closes to a simplicial sphere (the size-1 instance is the
    octahedron).  One hole opens the top with the prescribed cycle; two
    holes open both ends, which needs at least two rings so the hole cycles
    stay edge-disjoint.
    """
    if size < 1:
        raise InputError(f"size must be positive, got {size}")
    kappa = meta.connectivity
    if kappa > 2:
        raise InputError("the drum construction supports at most two holes")
    if kappa == 2 and size < 2:
        raise InputError("two holes need at least two rings")
    # The lower half of the rings takes the first hole's cycle, the upper
    # half the last one's; with no hole every ring is a square.
    first, last = (4, 4) if kappa == 0 else (meta.hole_cycles[0], meta.hole_cycles[-1])
    half = (size + 1) // 2
    bottom_capped = kappa < 2
    top_capped = kappa == 0
    n_vertices = bottom_capped + first * half + last * (size - half) + top_capped
    deficiency = sum(meta.hole_cycles) - 3 * kappa
    expected = _bounded(3 * n_vertices - 6 - deficiency, "simplicial_holes")
    ring_sizes = [first] * half + [last] * (size - half)
    label = 0
    bottom = None
    if bottom_capped:
        bottom = label
        label += 1
    starts = []
    for m in ring_sizes:
        starts.append(label)
        label += m
    top = None
    if top_capped:
        top = label
        label += 1
    edges = []
    if bottom is not None:
        edges += [(bottom, starts[0] + i) for i in range(ring_sizes[0])]
    for r, (s, m) in enumerate(zip(starts, ring_sizes)):
        edges += [(s + i, s + (i + 1) % m) for i in range(m)]
        if r + 1 < size:
            edges += _band(s, m, starts[r + 1], ring_sizes[r + 1])
    if top is not None:
        edges += [(starts[-1] + i, top) for i in range(ring_sizes[-1])]
    g = SimpleGraph(range(label), edges)
    _check_edges(g, expected, "simplicial_holes")
    return GeneratedFamily(g, None, meta)


def simplicial_flex_dim(meta: SimplicialMeta, norm: NormSpec) -> int:
    """Closed-form flexibility of a triangulated surface with holes.

    Valid for three dimensions; the non-Euclidean value presumes the graph
    has at least six vertices.
    """
    if norm.d != 3:
        raise InputError(f"the surface formula holds in dimension 3, not {norm.d}")
    base = sum(meta.hole_cycles) - 3 * meta.connectivity
    return base if norm.euclidean else base + 3


def add_shafts(g: SimpleGraph, count: int = 3) -> SimpleGraph:
    """Brace a closed triangulated surface with pairwise disjoint internal
    bars.  Three shafts take a simplicial sphere to the edge count of a
    minimally rigid graph for the non-Euclidean space norms."""
    if count < 1:
        raise InputError(f"count must be positive, got {count}")
    if g.n_vertices < 6:
        raise InputError(
            f"shafts need at least 6 vertices, got {g.n_vertices}"
        )
    if g.n_edges != 3 * g.n_vertices - 6:
        raise InputError(
            "graph does not have the edge count of a closed simplicial surface"
        )
    non_edges = [
        (v, w)
        for i, v in enumerate(g.vertices)
        for w in g.vertices[i + 1 :]
        if not g.has_edge(v, w)
    ]

    def pick(chosen: list, used: set, start: int) -> list | None:
        if len(chosen) == count:
            return chosen
        for idx in range(start, len(non_edges)):
            v, w = non_edges[idx]
            if v in used or w in used:
                continue
            found = pick(chosen + [(v, w)], used | {v, w}, idx + 1)
            if found is not None:
                return found
        return None

    shafts = pick([], set(), 0)
    if shafts is None:
        raise InputError(f"no {count} pairwise non-incident non-edges exist")
    return SimpleGraph(g.vertices, g.edges + tuple(shafts))


# ---- dispatch -------------------------------------------------------------

def _holes_family(holes, **params) -> GeneratedFamily:
    holes = tuple(holes)
    meta = SimplicialMeta(
        params.get("kappa", len(holes)), holes, params.get("refinement", 1)
    )
    return simplicial_holes(meta, params.get("size", 1))


# Parameters that count something; holes lists hole cycle lengths.
_COUNTS = frozenset(
    ("n", "stages", "cells", "layers", "levels", "kappa", "refinement", "size")
)


# Parameters that are real numbers.
_REALS = frozenset(("spacing", "shear"))


def _is_count(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    if not isinstance(x, Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


# name -> (builder, required parameters, optional parameters)
_FAMILIES = {
    "complete": (complete, ("n",), ()),
    "cycle": (cycle, ("n",), ()),
    "double_banana": (double_banana, (), ()),
    "banana_tower": (banana_tower, ("stages",), ()),
    "strip": (strip, ("cells",), ("mode", "spacing", "shear")),
    "whirlpool": (whirlpool, ("layers",), ()),
    "tetra_refined": (tetra_refined, ("levels",), ()),
    "octa_pointed": (octa_pointed, ("levels",), ()),
    "diamond": (diamond, ("levels",), ()),
    "simplicial_holes": (_holes_family, ("holes",), ("kappa", "refinement", "size")),
}


def available_families() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def generate(name: str, **params) -> GeneratedFamily:
    """Build a family by name; unknown names and parameters are rejected."""
    if name not in _FAMILIES:
        raise InputError(
            f"unknown family {name!r}; available: {', '.join(available_families())}"
        )
    builder, required, optional = _FAMILIES[name]
    extra = sorted(set(params) - set(required) - set(optional))
    if extra:
        raise InputError(f"family {name!r} does not take {', '.join(extra)}")
    missing = [p for p in required if p not in params]
    if missing:
        raise InputError(f"family {name!r} needs {', '.join(missing)}")
    for key, value in params.items():
        if key == "holes":
            if not isinstance(value, (list, tuple)) or not all(map(_is_count, value)):
                raise InputError(
                    f"family {name!r}: holes must be a list of integers, got {value!r}"
                )
        elif key in _COUNTS and not _is_count(value):
            raise InputError(f"family {name!r}: {key} must be an integer, got {value!r}")
        elif key in _REALS and not _is_real(value):
            raise InputError(
                f"family {name!r}: {key} must be a finite real number, got {value!r}"
            )
        elif key == "mode" and not isinstance(value, str):
            raise InputError(f"family {name!r}: mode must be a string, got {value!r}")
    out = builder(**params)
    if isinstance(out, SimpleGraph):
        return GeneratedFamily(out)
    return out
