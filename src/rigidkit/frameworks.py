"""Bar-joint frameworks in (R^d, lq): matrices, flexes, tracking.

The rigidity matrix of a framework has one row per edge vw with the signed
power (p_v - p_w)^(q-1) in the v block and its negation in the w block, where
x^(e) acts componentwise as sgn(x)|x|^e.  For q = 2 this is the classical
Euclidean matrix up to scale.  Rows are orientation-independent because the
signed power is odd.

Rank decisions at sampled placements go through placement_rank, or through
pinned_ranks, which also ranks the matrix with some vertices' columns deleted
(relative rigidity pins its anchor that way).  For an integer q every entry
is a polynomial in the coordinates, which are dyadic rationals, so the exact
matrix reduces mod the prime PRIME = 2^31 - 1, and int64 elimination gives
its rank over GF(PRIME).  That never exceeds the rank over Q: reaching
NormSpec.rigid_rank(n) certifies rigidity, and falling short of a generic
rank r happens with probability at most r(q-1)/PRIME per placement (Schwartz
1980), below r * 2^-21 as NormSpec keeps q <= 1024.  Sampled points are in
general position, so the norm counts their rigid motions.

The exact rank peels vertices before it eliminates.  A vertex v whose
columns are in the matrix has nonzero entries there only in the rows R of
its edges.  Put R first and v's columns first: the matrix is [[B, X], [0, M']]
with B the |R| x d block of R on v's columns.  If B has full row rank, a
combination y^T [B X] + z^T [0 M'] = 0 forces y^T B = 0, so y = 0 and
z^T M' = 0: the rank is |R| + rank(M').  So a vertex with at most d rows
whose block has full row rank mod PRIME adds |R| and leaves M', and peeling
repeats on M'.  A vertex added by a 0-extension (joined to at most d others)
peels at a generic placement, so a 0-extension graph peels to its base
whatever the order of its vertices and edges.  The peel reads each edge's
d values (the other end holds their negations), and only the core that is
left is laid out densely for rank_mod_p, which eliminates it in the input's
order.

Rigidity needs only a spanning subgraph whose rows reach rigid_rank(n), so
the peel may also drop rows.  When no vertex peels, a vertex of degree
k > d keeps d of its rows whose block is independent, drops the other k - d
and peels: its columns then meet only the kept rows, so the step above
ranks the matrix of kept rows.  Those are rows of the matrix, so the rank
they give is a lower bound on the rank.  With |E| - rigid_rank(n) drops allowed, a bound
that reaches rigid_rank(n) is the rank, which never exceeds it.  A complete
graph, none of whose vertices has degree d or less, keeps a 0-extension
graph on its K_{d+1} (q = 2) or K_{2d} base (Tay & Whiteley 1985).  Only
the body certificates of multi-body structures drop rows; every other rank
peels exactly.

A non-integer q, and flex_report at a given placement (an intended geometry
that float rounding perturbs, maybe degenerate), use the SVD cutoff
sigma > eps * sigma_max * max(rows, cols) with eps = 1e-9 by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ContinuationError,
    InconsistencyError,
    InputError,
    PlacementError,
)
from .graphs import SimpleGraph, Tower, validate_tower
from .norms import RANK_EPS, NormSpec
from .placements import Placement
from . import sparsity

__all__ = [
    "NormSpec",
    "Placement",
    "RANK_EPS",
    "VelocityField",
    "signed_power",
    "rigidity_matrix",
    "matrix_rank",
    "kernel_basis",
    "trivial_motion_basis",
    "FlexReport",
    "flex_report",
    "report_at_rank",
    "random_placement",
    "PRIME",
    "residues",
    "rigidity_matrix_mod_p",
    "rank_mod_p",
    "placement_rank",
    "pinned_ranks",
    "generic_rank",
    "GenericRigidityVerdict",
    "is_rigid_generic",
    "ExtensionResult",
    "flex_extends",
    "continuation_track",
    "FlexGrowthProfile",
    "flex_growth_profile",
]

VelocityField = dict[int, np.ndarray]


def _power(a: np.ndarray, e: float, mul=np.multiply) -> np.ndarray:
    """a ** e entry by entry for a >= 0: a whole e >= 1 by repeated squaring
    with mul (a product reduced mod PRIME for residues), any other e by the
    C library's pow, which numpy's scalar power calls.  numpy's vectorised
    pow can differ from it in the last bit, depending on the machine."""
    if e < 1 or not float(e).is_integer():
        return np.array([x**e for x in a.ravel()]).reshape(a.shape)
    n, out = int(e), None
    while True:
        if n & 1:
            out = a if out is None else mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


def signed_power(x: np.ndarray, e: float) -> np.ndarray:
    return np.sign(x) * _power(np.abs(x), e)


def _endpoints(g: SimpleGraph, p: Placement, norm: NormSpec) -> tuple[np.ndarray, np.ndarray]:
    """Placement rows and the row indices of each edge's two endpoints."""
    if p.dim != norm.d:
        raise PlacementError(f"placement dimension {p.dim} != norm dimension {norm.d}")
    return p.array_for(g).reshape(-1, norm.d), _edge_ends(g)


def _edge_ends(g: SimpleGraph) -> np.ndarray:
    """Vertex-order indices of each edge's two endpoints, as two rows."""
    idx = g.index_of
    ends = np.array([idx[v] for e in g.edges for v in e], dtype=np.intp)
    return ends.reshape(-1, 2).T


def _layout(
    n: int, d: int, ia: np.ndarray, ib: np.ndarray, vals: np.ndarray, neg: np.ndarray
) -> np.ndarray:
    """One row per entry of vals, with d columns for each of n vertices: vals
    in the first endpoint's d columns, neg in the second's."""
    m = np.zeros((len(vals), d * n), dtype=vals.dtype)
    rows, cols = np.arange(len(vals))[:, None], np.arange(d)
    m[rows, d * ia[:, None] + cols] = vals
    m[rows, d * ib[:, None] + cols] = neg
    return m


def rigidity_matrix(g: SimpleGraph, p: Placement, norm: NormSpec) -> np.ndarray:
    """One row per edge in g.edges order, d columns per vertex in g.vertices
    order."""
    return _float_rows(*_endpoints(g, p, norm), float(norm.q))


@np.errstate(over="ignore", invalid="ignore")
def _float_rows(
    pts: np.ndarray, ends: np.ndarray, qf: float, scale: float | np.ndarray = 1.0
) -> np.ndarray:
    """The float rigidity matrix on pts (one row each) for the edges with
    the given ends, each edge's row divided by its scale.  A non-finite
    entry raises PlacementError before any SVD or solve meets it."""
    ia, ib = ends
    vals = signed_power(pts[ia] - pts[ib], qf - 1.0) / scale
    if not np.isfinite(vals).all():
        raise PlacementError(f"rigidity matrix at q = {qf:g} has a non-finite entry")
    return _layout(len(pts), pts.shape[1], ia, ib, vals, -vals)


def _rank_from_singulars(s: np.ndarray, shape: tuple[int, int], eps: float) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = eps * s[0] * max(shape)
    return int(np.sum(s > cutoff))


def matrix_rank(m: np.ndarray, eps: float = RANK_EPS) -> int:
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _rank_from_singulars(s, m.shape, eps)


def kernel_basis(m: np.ndarray, eps: float = RANK_EPS) -> np.ndarray:
    """Orthonormal rows spanning the kernel."""
    cols = m.shape[1]
    if m.shape[0] == 0 or cols == 0:
        return np.eye(cols)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    r = _rank_from_singulars(s, m.shape, eps)
    return vt[r:]


def _motion_generators(g: SimpleGraph, p: Placement, norm: NormSpec) -> np.ndarray:
    """The d coordinate translations plus, in the Euclidean case, the d(d-1)/2
    infinitesimal rotations, evaluated at p: one flattened motion per row."""
    pts = p.array_for(g)
    n, d = g.n_vertices, norm.d
    gens = []
    for i in range(d):
        f = np.zeros((n, d))
        f[:, i] = 1.0
        gens.append(f.ravel())
    if norm.euclidean:
        for i in range(d):
            for j in range(i + 1, d):
                f = np.zeros((n, d))
                f[:, i] = -pts[:, j]
                f[:, j] = pts[:, i]
                gens.append(f.ravel())
    return np.array(gens)


def trivial_motion_basis(
    g: SimpleGraph, p: Placement, norm: NormSpec, eps: float = RANK_EPS
) -> np.ndarray:
    """Orthonormal basis of the evaluated rigid-motion space.

    The evaluated generators (_motion_generators) can be dependent (few
    vertices, degenerate positions), so the dimension is the rank of the
    evaluated set, never assumed maximal.
    """
    gmat = _motion_generators(g, p, norm)
    if gmat.size == 0:
        return np.zeros((0, norm.d * g.n_vertices))
    u, s, vt = np.linalg.svd(gmat, full_matrices=False)
    r = _rank_from_singulars(s, gmat.shape, eps)
    return vt[:r]


@dataclass(frozen=True)
class FlexReport:
    """Rank/nullity bookkeeping of one framework at one placement.  Its flex
    basis is built on first read: the motions are projected out of the
    kernel rows that _kernel returns, then made orthonormal by a thin SVD."""

    rank: int
    nullity: int
    trivial_dim: int
    flex_dim: int
    vertex_order: tuple[int, ...]
    _kernel: Callable[[], tuple[np.ndarray, np.ndarray]] = field(compare=False, repr=False)

    @cached_property
    def nontrivial_flex_basis(self) -> tuple[np.ndarray, ...]:
        if self.flex_dim <= 0:
            return ()
        kern, triv = self._kernel()
        residual = kern - (kern @ triv.T) @ triv
        vt = np.linalg.svd(residual, full_matrices=False)[2]
        return tuple(vt[i].reshape(len(self.vertex_order), -1) for i in range(self.flex_dim))

    @property
    def rigid(self) -> bool:
        return self.flex_dim == 0

    @property
    def classification(self) -> str:
        return "Rigid" if self.rigid else "Flexible"

    def flex_field(self, i: int = 0) -> VelocityField:
        arr = self.nontrivial_flex_basis[i]
        return {v: arr[j].copy() for j, v in enumerate(self.vertex_order)}


def _report(
    g: SimpleGraph, norm: NormSpec, rank: int, trivial_dim: int, kernel
) -> FlexReport:
    nullity = norm.d * g.n_vertices - rank
    return FlexReport(rank, nullity, trivial_dim, nullity - trivial_dim, g.vertices, kernel)


def flex_report(
    g: SimpleGraph, p: Placement, norm: NormSpec, tol: float = RANK_EPS
) -> FlexReport:
    """Flex report at a given placement, ranked by the SVD cutoff tol.  The
    placement may be degenerate, so its rigid motions are evaluated and
    ranked by the same cutoff.  The flex basis is built on first read."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"rank tolerance must be finite and non-negative, got {tol!r}")
    kern = kernel_basis(rigidity_matrix(g, p, norm), tol)
    rank = norm.d * g.n_vertices - kern.shape[0]
    triv = trivial_motion_basis(g, p, norm, tol)
    return _report(g, norm, rank, triv.shape[0], lambda: (kern, triv))


def report_at_rank(g: SimpleGraph, p: Placement, norm: NormSpec, rank: int) -> FlexReport:
    """Flex report at a sampled placement p for a rank from placement_rank.
    The points are in general position, so the norm gives the rigid-motion
    count.  The flex basis is built on first read, so a report whose basis
    is never read runs no SVD: a flexible one then takes the singular
    vectors after the known rank and projects out the evaluated motions.

    The SVD is of the matrix with unit rows, which has the same kernel and
    evens out the spread of q-th power row sizes, sharpening its float
    basis.  Each row is divided by its largest entry before its norm, so a
    row of tiny powers does not underflow to a zero norm; a row that is all
    zero (its powers underflowed) stays zero."""

    def kernel() -> tuple[np.ndarray, np.ndarray]:
        m = rigidity_matrix(g, p, norm)
        top = np.abs(m).max(axis=1, keepdims=True)
        m = m / np.where(top > 0.0, top, 1.0)
        # A nonzero row now holds an entry of exactly 1, so its norm is at least 1.
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1.0)
        kern = np.linalg.svd(m, full_matrices=True)[2][rank:]
        return kern, trivial_motion_basis(g, p, norm)

    return _report(g, norm, rank, norm.trivial_dim_at(g.n_vertices), kernel)


# ---- placement sampling ------------------------------------------------


def random_placement(g: SimpleGraph, norm: NormSpec, seed: int) -> Placement:
    """Uniform in [-1, 1]^d, drawn once.  An edge with an equal coordinate
    pair has probability below |E| d 2^-53, one more degenerate placement
    inside the per-placement error bound of the module docstring."""
    rng = np.random.default_rng(seed)
    return Placement.from_array(g, rng.uniform(-1.0, 1.0, size=(g.n_vertices, norm.d)))


# ---- exact rank mod a prime ----------------------------------------------

PRIME = 2**31 - 1


def residues(x: np.ndarray) -> np.ndarray:
    """Exact residues mod PRIME of float64 values.

    A finite double is mant * 2^k with an integer |mant| < 2^53, and
    2^31 = 1 mod PRIME, so 2^k reduces to 2^(k mod 31); both factors stay
    below 2^31, so their product fits in int64."""
    frac, exp = np.frexp(np.asarray(x, dtype=float))
    mant = np.ldexp(frac, 53).astype(np.int64)
    scale = np.left_shift(np.int64(1), (exp.astype(np.int64) - 53) % 31)
    return mant % PRIME * scale % PRIME


def rigidity_matrix_mod_p(g: SimpleGraph, p: Placement, norm: NormSpec) -> np.ndarray:
    """The exact rigidity matrix at p mod PRIME, for an integer q.  Signs
    come from comparing the floats, which is exact."""
    vals, (ia, ib) = _exact_values(g, p, norm)
    return _layout(g.n_vertices, norm.d, ia, ib, vals, -vals % PRIME)


def _exact_values(
    g: SimpleGraph, p: Placement, norm: NormSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's d entries of rigidity_matrix_mod_p on its first end's
    columns, one row per edge (the second end's are their negations), with
    the edge ends."""
    pts, ends = _endpoints(g, p, norm)
    ia, ib = ends
    sign = np.sign(pts[ia] - pts[ib]).astype(np.int64)
    res = residues(pts)
    magnitude = (res[ia] - res[ib]) * sign % PRIME
    power = _power(magnitude, norm.q_int - 1, lambda x, y: x * y % PRIME)
    return power * sign % PRIME, ends


def _core(
    vals: np.ndarray, ends: np.ndarray, d: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The exact matrix on the edges where rows is True and the columns of
    the vertices where cols is True, laid out densely."""
    ia, ib = ends[:, rows]
    v = vals[rows]
    return _layout(cols.size, d, ia, ib, v, -v % PRIME)[:, np.repeat(cols, d)]


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over GF(PRIME) of an integer matrix, by int64 elimination.
    Entries are reduced first, so a product of two stays below 2^62."""
    a = np.array(m, dtype=np.int64) % PRIME
    if a.shape[1] > a.shape[0]:
        a = a.T.copy()  # one step per column: take the shorter side
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = a[rank:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        pivot = a[rank, c:] * pow(int(a[rank, c]), -1, PRIME) % PRIME
        # The swap left a zero at rank + nz[0], so these are the rows to clear.
        below = rank + nz[1:]
        if below.size:
            a[below, c:] = (a[below, c:] - a[below, c, None] * pivot) % PRIME
        rank += 1
    return rank


def _basis_rows(rows: list[list[int]]) -> list[int]:
    """Positions of the rows of residues mod PRIME that are linearly
    independent of the rows before them, by fraction-free elimination on
    Python ints; it stops once it has as many as the rows have entries."""
    pivots: list[tuple[int, list[int]]] = []
    kept: list[int] = []
    for i, row in enumerate(rows):
        for c, prow in pivots:
            f = row[c]
            if f:
                pc = prow[c]
                row = [(x * pc - f * y) % PRIME for x, y in zip(row, prow)]
        for c, x in enumerate(row):
            if x:
                pivots.append((c, row))
                kept.append(i)
                break
        if len(kept) == len(row):
            break
    return kept


def _peeled_rank(
    vals: np.ndarray, ends: np.ndarray, d: int, free: np.ndarray, budget: int = 0
) -> tuple[int, list[int]]:
    """Rank mod PRIME of the exact matrix (edge values and ends as from
    _exact_values) on the columns of the vertices where free is True, over
    the rows of the edges with a free end, and the positions of the rows it
    dropped.  With budget 0 nothing is dropped and the result is the rank;
    otherwise it is a lower bound.

    A free vertex with at most d such rows R whose block on its own columns
    has full row rank adds |R| and goes with R (the module docstring gives
    the block-triangular argument); its neighbours are then tried again.
    When none is left, the free vertex of least degree k > d with
    k - d <= budget (the first on a tie) keeps the first d of its rows whose
    blocks are independent, drops the rest from the budget and goes the same
    way.  A vertex with fewer independent rows can overdraw the budget; the
    bound can then no longer reach the row count less the budget, and it is
    returned without eliminating.  rank_mod_p ranks the core that is left,
    and the whole matrix when budget is 0 and no free vertex has degree d or
    less."""
    n = free.size
    live = free[ends].any(axis=0)
    # Every edge at a free vertex is live, so its degree counts all edges.
    deg = np.bincount(ends.ravel(), minlength=n)
    low = free & (deg <= d)
    if not budget and not low.any():
        return rank_mod_p(_core(vals, ends, d, live, free)), []
    queue = np.flatnonzero(low).tolist()
    ia, ib = ends.tolist()
    # Negating a row keeps it independent, so vals[e] stands for row e's
    # block on either end.
    blocks = vals.tolist()
    incident: list[list[int]] = [[] for _ in range(n)]
    for e in np.flatnonzero(live).tolist():
        incident[ia[e]].append(e)
        incident[ib[e]].append(e)
    deg, alive, left = deg.tolist(), live.tolist(), free.tolist()
    rank, dropped = 0, []
    while True:
        if queue:
            v = queue.pop()
            if not left[v]:
                continue
        else:
            pick = [(deg[u], u) for u in range(n) if left[u] and d < deg[u] <= d + budget]
            if not pick:
                break
            v = min(pick)[1]
        rows = [e for e in incident[v] if alive[e]]
        kept = _basis_rows([blocks[e] for e in rows])
        if len(kept) < len(rows):
            if len(rows) <= d:  # a singular block: v stays
                continue
            budget -= len(rows) - len(kept)
            if budget < 0:
                return rank, dropped
            dropped += [e for i, e in enumerate(rows) if i not in kept]
        rank += len(kept)
        left[v] = False
        for e in rows:
            alive[e] = False
            u = ia[e] + ib[e] - v
            deg[u] -= 1
            if left[u] and deg[u] <= d:
                queue.append(u)
    core = _core(vals, ends, d, np.array(alive, dtype=bool), np.array(left, dtype=bool))
    return rank + rank_mod_p(core), dropped


def placement_rank(g: SimpleGraph, p: Placement, norm: NormSpec) -> int:
    """Rank of the rigidity matrix at p: exact mod PRIME for an integer q,
    by the SVD cutoff otherwise.

    The exact rank first peels each vertex v with at most d edges R left
    whose |R| x d block on v's own columns has full row rank mod PRIME.
    v's columns are zero outside R, so the matrix is block triangular, and
    rank = |R| + the rank without R and v's columns.  rank_mod_p eliminates
    what is left.  The result is the full elimination's rank, whatever the
    order of the peels."""
    if not norm.q_is_integer:
        return matrix_rank(rigidity_matrix(g, p, norm))
    vals, ends = _exact_values(g, p, norm)
    return _peeled_rank(vals, ends, norm.d, np.ones(g.n_vertices, dtype=bool))[0]


def pinned_ranks(
    g: SimpleGraph, p: Placement, norm: NormSpec, free: np.ndarray
) -> tuple[int, int]:
    """Ranks at p, by placement_rank's route, of the rigidity matrix and of
    its columns at the vertices where free is True (in g.vertices order).
    Rows that the deleted columns leave all zero are dropped before the
    second rank.

    The exact anchored rank peels free vertices only, as placement_rank
    does: a free vertex v with at most d edges R left (edges to the anchor
    included) whose block on v's columns has full row rank adds |R|.  v's
    columns are zero outside R, so the anchored matrix is block triangular
    and its rank is |R| + the rank without R and v's columns.  Anchored
    vertices have no columns, so they are never peeled."""
    if not norm.q_is_integer:
        m = rigidity_matrix(g, p, norm)
        part = m[:, np.repeat(free, norm.d)]
        return matrix_rank(m), matrix_rank(part[part.any(axis=1)])
    vals, ends = _exact_values(g, p, norm)
    every = np.ones(g.n_vertices, dtype=bool)
    return (
        _peeled_rank(vals, ends, norm.d, every)[0],
        _peeled_rank(vals, ends, norm.d, free)[0],
    )


def _certified_rank(
    g: SimpleGraph, p: Placement, norm: NormSpec
) -> tuple[int, list[int]]:
    """placement_rank(g, p, norm), with the positions in g.edges of rows
    that can go without lowering it.

    For an integer q the peel first runs with |E| - rigid_rank(n) rows to
    drop.  Its kept rows are rows of the matrix, so their rank is at most
    the rank, which is at most rigid_rank(n): a bound that reaches it is the
    rank, and the edges kept certify g rigid.  A rigid complete graph keeps
    a 0-extension graph on its K_{d+1} (Euclidean) or K_{2d} base.  Only
    when the bound falls short does the whole matrix go through
    placement_rank, and then no row is dropped."""
    top = norm.rigid_rank(g.n_vertices)
    if norm.q_is_integer and g.n_edges >= top:
        vals, ends = _exact_values(g, p, norm)
        every = np.ones(g.n_vertices, dtype=bool)
        bound, dropped = _peeled_rank(vals, ends, norm.d, every, g.n_edges - top)
        if bound >= top:
            return bound, dropped
    return placement_rank(g, p, norm), []


# ---- generic-rank decisions --------------------------------------------


def _best_placement(
    g: SimpleGraph, norm: NormSpec, trials: int, seed: int, target: int | None = None
) -> tuple[int, Placement]:
    """Highest rank over the placements of seeds seed, seed + 1, ..., with the
    placement, stopping at the first whose rank reaches
    min(target, norm.rigid_rank(n)).  The target defaults to |E|, which bounds
    every rank; a caller that knows the generic rank passes that instead."""
    if trials < 1:
        raise InputError("generic rank sampling needs at least one trial")
    if target is None:
        target = g.n_edges
    stop = min(target, norm.rigid_rank(g.n_vertices))
    best: tuple[int, Placement] | None = None
    for t in range(trials):
        p = random_placement(g, norm, seed + t)
        rank = placement_rank(g, p, norm)
        if best is None or rank > best[0]:
            best = (rank, p)
        if rank >= stop:
            break
    assert best is not None
    return best


def generic_rank(g: SimpleGraph, norm: NormSpec, trials: int = 5, seed: int = 0) -> int:
    """Highest rank over seeded random placements, stopping at the first that
    reaches min(|E|, norm.rigid_rank(n)).  For an integer q this certifies a
    lower bound on the generic rank r, short of it with probability at most
    r(q-1)/PRIME per placement; a non-integer q ranks by the SVD cutoff."""
    return _best_placement(g, norm, trials, seed)[0]


@dataclass(frozen=True)
class GenericRigidityVerdict:
    rigid: bool
    report: FlexReport = field(compare=False)
    placement: Placement = field(compare=False)
    combinatorial: bool | None = field(compare=False, default=None)


def _plane_cross_check(
    g: SimpleGraph, norm: NormSpec, rigid: bool, rank: int
) -> bool | None:
    """In the plane, the tight-spanning combinatorial verdict on g, which must
    agree with a numeric one at the given rank; None in other dimensions."""
    if norm.d != 2:
        return None
    count = sparsity.planar_count(norm)
    n = g.n_vertices
    comb = n <= 1 or len(sparsity.PebbleGame.over(g, count).accepted) == count.target(n)
    if comb != rigid:
        raise InconsistencyError(
            f"combinatorial verdict {comb} disagrees with numeric "
            f"verdict {rigid} (rank {rank})"
        )
    return comb


def is_rigid_generic(
    g: SimpleGraph, norm: NormSpec, trials: int = 5, seed: int = 0
) -> GenericRigidityVerdict:
    """Generic rigidity at the placement of generic_rank.

    For an integer q, Rigid is certified by the exact rank mod PRIME, and
    Flexible is wrong with probability at most r(q-1)/PRIME per placement; a
    non-integer q decides by the SVD cutoff.  In the plane the verdict is
    cross-checked against the tight-spanning combinatorial characterization;
    disagreement raises InconsistencyError.
    """
    rank, p = _best_placement(g, norm, trials, seed)
    report = report_at_rank(g, p, norm, rank)
    comb = _plane_cross_check(g, norm, report.rigid, report.rank)
    return GenericRigidityVerdict(
        rigid=report.rigid, report=report, placement=p, combinatorial=comb
    )


# ---- flex extension -----------------------------------------------------


@dataclass(frozen=True)
class ExtensionResult:
    extends: bool
    residual: float
    flex: VelocityField | None = field(compare=False, default=None)


def _field_to_vec(g: SimpleGraph, u: Mapping[int, Sequence[float]], d: int) -> np.ndarray:
    out = np.zeros((g.n_vertices, d))
    for i, v in enumerate(g.vertices):
        if v not in u:
            raise InputError(f"velocity field misses vertex {v}")
        vec = np.asarray(u[v], dtype=float)
        if vec.shape != (d,):
            raise InputError(f"velocity of vertex {v} is not {d}-dimensional")
        out[i] = vec
    return out


_EXTENSION_TOL = 1e-8


def flex_extends(
    g_small: SimpleGraph,
    g_large: SimpleGraph,
    p: Placement,
    u: Mapping[int, Sequence[float]],
    norm: NormSpec,
) -> ExtensionResult:
    """Least-squares extension of a flex of the small framework to the large.

    The input must be a flex of (g_small, p) already; velocities for the new
    vertices are solved for, and the extension succeeds when the combined
    residual over all edges of g_large drops below _EXTENSION_TOL (relative
    to the input speed scale).
    """
    if not g_small.is_subgraph_of(g_large):
        raise InputError("first graph is not a subgraph of the second")
    d = norm.d
    u_small = _field_to_vec(g_small, u, d)
    rm_small = rigidity_matrix(g_small, p.restrict(g_small.vertices), norm)
    scale = max(1.0, float(np.max(np.abs(u_small))) if u_small.size else 1.0)
    if rm_small.size:
        pre = float(np.max(np.abs(rm_small @ u_small.ravel())))
        if pre > _EXTENSION_TOL * scale * 10:
            raise InputError(
                f"input is not a flex of the small framework (residual {pre:.3e})"
            )
    rm = rigidity_matrix(g_large, p, norm)
    new_vertices = [v for v in g_large.vertices if v not in g_small.vertex_set]
    idx = g_large.index_of
    known_cols = np.zeros(d * g_large.n_vertices, dtype=bool)
    full = np.zeros((g_large.n_vertices, d))
    for v in g_small.vertices:
        known_cols[d * idx[v] : d * idx[v] + d] = True
        full[idx[v]] = u_small[g_small.index_of[v]]
    if new_vertices:
        a = rm[:, ~known_cols]
        b = -rm[:, known_cols] @ full.ravel()[known_cols]
        w, *_ = np.linalg.lstsq(a, b, rcond=None)
        full.ravel()[~known_cols] = w
    resid_vec = rm @ full.ravel() if rm.size else np.zeros(0)
    residual = float(np.max(np.abs(resid_vec))) if resid_vec.size else 0.0
    ok = residual <= _EXTENSION_TOL * scale
    flex = {v: full[idx[v]].copy() for v in g_large.vertices} if ok else None
    return ExtensionResult(extends=ok, residual=residual, flex=flex)


# ---- continuation ------------------------------------------------------


def _pinned_coordinates(g: SimpleGraph, norm: NormSpec) -> list[int]:
    """Flat coordinate indices held fixed while tracking.

    Vertex 0 is pinned fully; Euclidean tracking pins further leading
    coordinates of the following vertices until d(d+1)/2 are held.
    """
    want = norm.trivial_dim_generic
    if g.n_vertices * norm.d < want:
        raise InputError("too few vertices to pin the rigid motions")
    pins = []
    for pos in range(g.n_vertices):
        for i in range(norm.d):
            if len(pins) == want:
                return pins
            pins.append(pos * norm.d + i)
    return pins


@np.errstate(over="ignore")  # an infinite length leaves a non-finite Jacobian
def _lq_lengths(pts: np.ndarray, g: SimpleGraph, qf: float) -> np.ndarray:
    ia, ib = _edge_ends(g)
    return _power(np.sum(_power(np.abs(pts[ia] - pts[ib]), qf), axis=1), 1.0 / qf)


def _length_jacobian(pts: np.ndarray, g: SimpleGraph, qf: float) -> np.ndarray:
    """Jacobian of the edge-length map: each rigidity matrix row divided by
    its edge's lq length^(q-1)."""
    scale = _power(_lq_lengths(pts, g, qf), qf - 1.0)
    return _float_rows(pts, _edge_ends(g), qf, scale[:, None])


_NEWTON_TOL = 1e-12
_MAX_NEWTON = 25
_LENGTH_TOL = 1e-8


def continuation_track(
    g: SimpleGraph,
    p0: Placement,
    norm: NormSpec,
    direction: Mapping[int, Sequence[float]],
    steps: int,
    step_length: float,
) -> list[Placement]:
    """Euler predictor / Newton corrector path through the configuration set.

    Rigid motions are removed by pinning coordinates (vertex 0 fully, plus
    leading coordinates of later vertices in the Euclidean case).  The input
    direction is projected onto the pinned kernel at the start; a zero
    projection yields a constant path.  Returns the `steps` placements after
    the start; every edge keeps its lq length to within _LENGTH_TOL.
    """
    if steps < 1:
        raise InputError("need at least one step")
    qf = float(norm.q)
    pts = p0.array_for(g)
    lengths0 = _lq_lengths(pts, g, qf)
    if np.any(lengths0 == 0.0):
        raise PlacementError("some edge has coincident endpoints")
    pins = _pinned_coordinates(g, norm)
    free = np.ones(pts.size, dtype=bool)
    free[pins] = False
    dir_full = _field_to_vec(g, direction, norm.d).ravel()
    prev_dir: np.ndarray | None = None
    out: list[Placement] = []
    x = pts.ravel().copy()
    for step in range(steps):
        jac = _length_jacobian(x.reshape(-1, norm.d), g, qf)
        kern = kernel_basis(jac[:, free]) if jac.size else np.eye(int(free.sum()))
        seed_dir = prev_dir if prev_dir is not None else dir_full[free]
        proj = kern.T @ (kern @ seed_dir)
        nrm = float(np.linalg.norm(proj))
        if nrm < 1e-12:
            tangent = np.zeros_like(proj)
        else:
            tangent = proj / nrm
            if prev_dir is not None and float(tangent @ prev_dir) < 0:
                tangent = -tangent
        x_new = x.copy()
        x_new[free] += step_length * tangent
        # Newton corrections on the edge-length equations.
        for _ in range(_MAX_NEWTON):
            resid = _lq_lengths(x_new.reshape(-1, norm.d), g, qf) - lengths0
            worst = float(np.max(np.abs(resid))) if resid.size else 0.0
            if worst < _NEWTON_TOL:
                break
            jac_c = _length_jacobian(x_new.reshape(-1, norm.d), g, qf)[:, free]
            delta, *_ = np.linalg.lstsq(jac_c, -resid, rcond=None)
            x_new[free] += delta
        else:
            raise ContinuationError(step, f"corrector stalled at step {step}")
        drift = _lq_lengths(x_new.reshape(-1, norm.d), g, qf) - lengths0
        if drift.size and float(np.max(np.abs(drift))) > _LENGTH_TOL:
            raise ContinuationError(step, f"length drift exceeded tolerance at step {step}")
        x = x_new
        prev_dir = tangent if nrm >= 1e-12 else None
        out.append(Placement.from_array(g, x.reshape(-1, norm.d)))
    return out


# ---- growth profiles ---------------------------------------------------


@dataclass(frozen=True)
class FlexGrowthProfile:
    speeds: tuple[float, ...]
    trend: str
    cancellation_stage: int | None = None


def _max_speed(u: Mapping[int, np.ndarray]) -> float:
    return max(float(np.linalg.norm(vec)) for vec in u.values())


def flex_growth_profile(
    stages: Sequence[SimpleGraph],
    placements: Sequence[Placement],
    norm: NormSpec,
    base_flex: Mapping[int, Sequence[float]] | None = None,
) -> FlexGrowthProfile:
    """Extend a stage-1 nontrivial flex up a nested sequence of frameworks.

    Speeds are per-stage maxima of vertex speed, normalized so stage 1 is 1.
    If some stage refuses the extension the profile stops there and reports
    the cancellation stage.  Without a base flex the first stage's computed
    nontrivial flex is used; a rigid first stage gives an empty profile.
    """
    if len(stages) != len(placements):
        raise InputError("stage and placement counts differ")
    validate_tower(Tower(stages))
    for k in range(len(stages) - 1):
        for v in stages[k].vertices:
            a = np.asarray(placements[k][v])
            b = np.asarray(placements[k + 1][v])
            if not np.allclose(a, b, atol=1e-12, rtol=0.0):
                raise InputError(f"placements disagree on vertex {v} at stage {k + 1}")
    if base_flex is None:
        rep = flex_report(stages[0], placements[0].restrict(stages[0].vertices), norm)
        if rep.flex_dim == 0:
            return FlexGrowthProfile(speeds=(), trend="empty")
        u: Mapping[int, np.ndarray] = rep.flex_field(0)
    else:
        u = {v: np.asarray(vec, dtype=float) for v, vec in base_flex.items()}
    speeds = [_max_speed({v: u[v] for v in stages[0].vertices})]
    if speeds[0] == 0.0:
        raise InputError("base flex is identically zero on stage 1")
    cancellation = None
    for k in range(1, len(stages)):
        ext = flex_extends(stages[k - 1], stages[k], placements[k], u, norm)
        if not ext.extends:
            cancellation = k
            break
        assert ext.flex is not None
        u = ext.flex
        speeds.append(_max_speed(u))
    base = speeds[0]
    rel = tuple(s / base for s in speeds)
    diffs = [rel[i + 1] - rel[i] for i in range(len(rel) - 1)]
    if all(abs(x) <= 1e-9 for x in diffs):
        trend = "constant"
    elif all(x > 0 for x in diffs):
        trend = "increasing"
    elif all(x < 0 for x in diffs):
        trend = "decreasing"
    else:
        trend = "mixed"
    return FlexGrowthProfile(speeds=rel, trend=trend, cancellation_stage=cancellation)
