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
peels exactly.  A peel that leaves no row or no column calls no elimination.

The nested stages of a tower are ranked at one placement of the last stage
by carrying a kernel basis mod PRIME up them (_Carry): a stage ranks only
the rows and vertices it adds, against the kernel of the stage before, and
the same forward elimination gives the rank with the old vertices pinned.
A stage's kernel is built only when a later stage reads it, from the core's
reduced echelon form and back-substitution through the peel; a stage
certified rigid reads its rigid motions mod PRIME instead, so only a stage
that is not certified rigid holds d n nullity int64 entries.  A stage whose
flexes outweigh what the next one adds is not carried: the next stage is
ranked afresh, and the pinned rank by the peel, as pinned_ranks ranks a
lone pair.

A non-integer q, and flex_report at a given placement (an intended geometry
that float rounding perturbs, maybe degenerate), use the SVD cutoff
sigma > eps * sigma_max * max(rows, cols) with eps = 1e-9 by default.
flex_report counts the singular values above it from the values alone
(LAPACK's dqds route, accurate to high relative precision: Demmel & Kahan
1990) and computes singular vectors only when its flex basis is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

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
    """Flex report at a given placement, ranked by the SVD cutoff tol from
    singular values alone.  The placement may be degenerate, so its rigid
    motions are evaluated and ranked by the same cutoff.

    The flex basis is built on first read, from kernel_basis and
    trivial_motion_basis at tol, which take singular vectors: a report
    whose basis is never read computes none.  The two SVD drivers can
    differ in the last bits of a singular value, so a basis whose row
    counts differ from the reported nullity or motion count raises
    InconsistencyError with both counts."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"rank tolerance must be finite and non-negative, got {tol!r}")
    rank = matrix_rank(rigidity_matrix(g, p, norm), tol)
    trivial_dim = matrix_rank(_motion_generators(g, p, norm), tol)
    nullity = norm.d * g.n_vertices - rank

    def kernel() -> tuple[np.ndarray, np.ndarray]:
        kern = kernel_basis(rigidity_matrix(g, p, norm), tol)
        triv = trivial_motion_basis(g, p, norm, tol)
        for what, rows, count in (("kernel", kern, nullity), ("motion", triv, trivial_dim)):
            if rows.shape[0] != count:
                raise InconsistencyError(
                    f"{what} basis has {rows.shape[0]} rows, but singular values "
                    f"alone counted {count} at tolerance {tol:g}"
                )
        return kern, triv

    return _report(g, norm, rank, trivial_dim, kernel)


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


def _check_seed(seed: int) -> int:
    """The seed, if the CLI's --seed would take it; numpy would misread a bool."""
    if isinstance(seed, bool) or not isinstance(seed, int | np.integer) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def random_placement(g: SimpleGraph, norm: NormSpec, seed: int) -> Placement:
    """Uniform in [-1, 1]^d, drawn once.  An edge with an equal coordinate
    pair has probability below |E| d 2^-53, one more degenerate placement
    inside the per-placement error bound of the module docstring."""
    rng = np.random.default_rng(_check_seed(seed))
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
    return _exact_rows(pts, residues(pts), ends, norm), ends


def _exact_rows(pts: np.ndarray, res: np.ndarray, ends: np.ndarray, norm: NormSpec) -> np.ndarray:
    """_exact_values from the points, their residues and the edge ends."""
    ia, ib = ends
    sign = np.sign(pts[ia] - pts[ib]).astype(np.int64)
    magnitude = (res[ia] - res[ib]) * sign % PRIME
    power = _power(magnitude, norm.q_int - 1, lambda x, y: x * y % PRIME)
    return power * sign % PRIME


def _core(
    vals: np.ndarray, ends: np.ndarray, d: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The exact matrix on the edges where rows is True and the columns of
    the vertices where cols is True, laid out densely."""
    ia, ib = ends[:, rows]
    v = vals[rows]
    return _layout(cols.size, d, ia, ib, v, -v % PRIME)[:, np.repeat(cols, d)]


def _inverse(x: int) -> int:
    return pow(x, -1, PRIME)


def _echelon(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(PRIME) of an integer matrix by int64
    elimination, pivoting on the columns in their order: its nonzero rows
    and their pivot columns.  Entries are reduced first, so a product of two
    stays below 2^62."""
    a = np.ascontiguousarray(m, dtype=np.int64) % PRIME
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        pivot = a[r, c:] * _inverse(int(a[r, c])) % PRIME
        # The swap left a zero at r + nz[0], so these are the rows to clear.
        below = r + nz[1:]
        if below.size:
            a[below, c:] = (a[below, c:] - a[below, c, None] * pivot) % PRIME
        pivots.append(c)
    return a[: len(pivots)], pivots


def _reduce(ech: np.ndarray, piv: list[int]) -> np.ndarray:
    """The reduced form of rows in echelon form mod PRIME with the given
    pivot columns, cleared from the last pivot up."""
    a = ech.copy()
    for i in reversed(range(len(piv))):
        c = piv[i]
        a[i, c:] = a[i, c:] * _inverse(int(a[i, c])) % PRIME
        above = a[:i, c].nonzero()[0]
        if above.size:
            a[above, c:] = (a[above, c:] - a[above, c, None] * a[i, c:]) % PRIME
    return a


def rank_mod_p(m: np.ndarray) -> int:
    """Rank over GF(PRIME) of an integer matrix, by _echelon on the matrix
    or its transpose, whichever has fewer columns (one step per column)."""
    a = np.asarray(m, dtype=np.int64)
    if a.shape[1] > a.shape[0]:
        a = a.T
    return len(_echelon(a)[1])


def _matmul_mod_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod PRIME for residues.  b splits into 16-bit halves and the
    inner dimension into chunks of 2^15, so no int64 sum passes 2^62."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    lo, hi = b & 0xFFFF, b >> 16
    step = 1 << 15
    for s in range(0, a.shape[1], step):
        x = a[:, s : s + step]
        out = (out + (x @ hi[s : s + step] % PRIME << 16) + x @ lo[s : s + step]) % PRIME
    return out


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


class _Peel(NamedTuple):
    """What _peel took: the rank it added, the rows it dropped, each peeled
    vertex with the rows it kept in peel order, and the live rows and free
    vertices left for the core.  short marks an overdrawn budget."""

    rank: int
    dropped: list[int]
    order: list[tuple[int, list[int]]]
    rows: np.ndarray
    cols: np.ndarray
    short: bool = False


def _peel(
    vals: np.ndarray, ends: np.ndarray, d: int, free: np.ndarray, budget: int = 0
) -> _Peel:
    """Peel the exact matrix (edge values and ends as from _exact_values) on
    the columns of the vertices where free is True, over the rows of the
    edges with a free end (the live rows).  With budget 0 nothing is
    dropped, and the rank is the peeled rank plus the core's.

    A free vertex with at most d live rows R whose block on its own columns
    has full row rank adds |R| and goes with R (the module docstring gives
    the block-triangular argument); its neighbours are then tried again.
    When none is left, the free vertex of least degree k > d with
    k - d <= budget (the first on a tie) keeps the first d of its rows whose
    blocks are independent, drops the rest from the budget and goes the same
    way.  A vertex with fewer independent rows can overdraw the budget; the
    bound can then no longer reach the row count less the budget, and the
    peel stops short.  When budget is 0 and no free vertex has degree d or
    less, the core is the whole matrix."""
    n = free.size
    live = free[ends].any(axis=0)
    # Every edge at a free vertex is live, so its degree counts all edges.
    deg = np.bincount(ends.ravel(), minlength=n)
    low = free & (deg <= d)
    if not budget and not low.any():
        return _Peel(0, [], [], live, free)
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
    rank, dropped, order = 0, [], []
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
                return _Peel(rank, dropped, order, live, free, short=True)
            dropped += [e for i, e in enumerate(rows) if i not in kept]
        rank += len(kept)
        order.append((v, [rows[i] for i in kept]))
        left[v] = False
        for e in rows:
            alive[e] = False
            u = ia[e] + ib[e] - v
            deg[u] -= 1
            if left[u] and deg[u] <= d:
                queue.append(u)
    return _Peel(rank, dropped, order, np.array(alive, dtype=bool), np.array(left, dtype=bool))


def _peeled_rank(
    vals: np.ndarray, ends: np.ndarray, d: int, free: np.ndarray, budget: int = 0
) -> tuple[int, list[int]]:
    """Rank mod PRIME of the matrix _peel takes, and the positions of the
    rows it dropped: with budget 0 the rank, otherwise a lower bound, which
    a short peel returns without eliminating.  rank_mod_p ranks the core
    that is left, unless it has no row or no column."""
    peel = _peel(vals, ends, d, free, budget)
    return (peel.rank if peel.short else _rank_after(vals, ends, d, peel)), peel.dropped


def _rank_after(vals: np.ndarray, ends: np.ndarray, d: int, peel: _Peel) -> int:
    """The rank peel took plus that of the core it left, by rank_mod_p
    unless the core has no row or no column."""
    if not peel.rows.any() or not peel.cols.any():
        return peel.rank
    return peel.rank + rank_mod_p(_core(vals, ends, d, peel.rows, peel.cols))


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
    vertices have no columns, so they are never peeled.  At an integer q a
    tower's pairs go through _Carry instead, which reads each stage's kernel
    in the next step; a lone pair has no next step, and the anchor's kernel
    would cost more than the two peels."""
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


# ---- one flex space up a tower --------------------------------------------


class _Once:
    """build() on the first call, then its result.  build goes once it has
    run, and with it the step data and the stage before, so a tower holds
    no kernel that no later stage can read."""

    def __init__(self, build: Callable[[], np.ndarray]):
        self.build: Callable[[], np.ndarray] | None = build

    def __call__(self) -> np.ndarray:
        if self.build is not None:
            self.value, self.build = self.build(), None
        return self.value


class _Stage(NamedTuple):
    """A stage of a _Carry: its index, its vertex and edge counts, its rank
    mod PRIME, and its kernel basis read by vertex: kernel(idx) is the
    (len(idx), d, nullity) array of the basis vectors' rows at the vertex
    positions idx."""

    index: int
    n: int
    m: int
    rank: int
    kernel: Callable[[np.ndarray], np.ndarray]


class _Added(NamedTuple):
    """The rows a stage adds to the first n0 vertices and m0 edges: their
    values and ends, the ends counted from the first new vertex (an old end
    is the spare vertex t, which is not free), the peel of the new vertices
    on these rows, the core's rows (live, or with two old ends) and its
    width, d per free vertex."""

    vals: np.ndarray
    ends: np.ndarray
    local: np.ndarray
    peel: _Peel
    rows: np.ndarray
    width: int


def _work(rows: int, cols: int) -> int:
    """Entry updates that eliminating a dense rows x cols matrix can take."""
    return rows * cols * min(rows, cols)


class _Carry:
    """Ranks mod PRIME of nested stages at one placement p of the last.

    Vertices and edges are numbered in the order the stages bring them, so
    stage k holds the first n_k vertices and m_k edges, and its matrix M_k
    has a kernel basis K_k mod PRIME.  A later stage j adds the rows [A | B],
    A on stage k's columns and B on the new vertices'.  Stage k's rows are
    zero on the new columns, so ker M_j = {(K_k c, y) : A K_k c + B y = 0},
    and rank M_j = rank M_k + rank [B | A K_k], while rank B is the pinned
    rank: that of M_j with stage k's columns deleted.  step peels the new
    vertices on the new rows (_peel: a peeled vertex's columns meet only its
    rows, in [B | A K_k] too) and forward-eliminates the core [B | A K_k]
    with B's columns first, so its pivots in B add to the pinned rank and
    all its pivots to the rank.  A K_k is read at the old ends of the
    core's rows only.

    The core's old columns are the nullity of stage k.  Rigid motions add
    only the trivial dimension, but the flexes of a large flexible stage,
    or one that stage j extends by edges alone, can outweigh all that stage
    j adds.  So when stage k has a flex and writing K_k (d n_k nullity
    entries) and eliminating [B | A K_k] (_work, the dense bound) can take
    more work than eliminating B and reading stage j's rows, which ranking
    stage j afresh must do, step also peels stage j whole.  When
    eliminating B and the core that peel leaves takes less work than
    carrying, it ranks B alone and stage j from no vertex, as two peels
    would, and never builds K_k.  A tower of stages that each add a block
    that does not peel, as the banana tower's, carries K_k, since peeling
    its stages whole leaves them whole.

    K_j is built when a later step first reads it.  The core's reduced
    echelon form gives its kernel; then each peeled vertex, in reverse peel
    order, solves its kept rows for its own d coordinates (the reduced form
    of [block | I], whose pivots all fall in the block's independent rows'
    d columns), and each coordinate they leave free adds a null vector.
    K_k c gives the old vertices' rows.  A stage whose rank reaches
    rigid_rank(n) with at least d vertices reads its rigid motions instead
    (_motions), which lie in the kernel mod PRIME as polynomial identities,
    once a rank_mod_p check finds them independent on the first d vertices.
    So only a stage that is not certified rigid holds d n nullity int64
    entries."""

    def __init__(self, stages: Sequence[SimpleGraph], p: Placement, norm: NormSpec):
        order: dict[int, None] = {}
        edges: dict[tuple[int, int], None] = {}
        self.sizes = []
        for s in stages:
            order.update(dict.fromkeys(s.vertices))
            edges.update(dict.fromkeys(s.edges))
            self.sizes.append((len(order), len(edges)))
        pts = _endpoints(SimpleGraph(order), p, norm)[0]
        index = {v: i for i, v in enumerate(order)}
        self.ends = np.array([index[v] for e in edges for v in e], dtype=np.intp).reshape(-1, 2).T
        self.norm, self.d, self.res = norm, norm.d, residues(pts)
        self.vals = _exact_rows(pts, self.res, self.ends, norm)
        self.empty = _Stage(
            -1, 0, 0, 0, lambda idx: np.zeros((len(idx), self.d, 0), dtype=np.int64)
        )

    def first(self) -> _Stage:
        """Stage 0, stepped to from no vertex."""
        return self.step(self.empty, 0)[1]

    def step(self, small: _Stage, j: int) -> tuple[int, _Stage]:
        """The pinned rank of stage j at the vertices that small lacks, and
        stage j."""
        new = self._added(small, j)
        old = self.d * small.n - small.rank
        if old > self.norm.trivial_dim_at(small.n):
            # Carried, K_k is written and [B | A K_k] eliminated; afresh, B
            # is eliminated and stage j's d m_j values are read.
            carried = self.d * small.n * old + _work(int(new.rows.sum()), new.width + old)
            alone = _work(int(new.peel.rows.sum()), new.width)
            if carried > alone + self.d * self.sizes[j][1]:
                whole = self._added(self.empty, j)
                if alone + _work(int(whole.rows.sum()), whole.width) < carried:
                    pinned = _rank_after(new.vals, new.local, self.d, new.peel)
                    return pinned, self._reach(self.empty, whole, j)[1]
        return self._reach(small, new, j)

    def _added(self, small: _Stage, j: int) -> _Added:
        """What stage j adds to small, peeled."""
        n0, m0 = small.n, small.m
        n1, m1 = self.sizes[j]
        ends = self.ends[:, m0:m1]
        t = n1 - n0
        local = np.where(ends >= n0, ends - n0, t)
        peel = _peel(self.vals[m0:m1], local, self.d, np.arange(t + 1) < t)
        rows = peel.rows | (local == t).all(axis=0)
        width = self.d * int(peel.cols.sum())
        return _Added(self.vals[m0:m1], ends, local, peel, rows, width)

    def _reach(self, small: _Stage, new: _Added, j: int) -> tuple[int, _Stage]:
        """step from small with what stage j adds to it."""
        d, rows = self.d, new.rows
        n1, m1 = self.sizes[j]
        core = np.zeros((0, new.width + d * small.n - small.rank), dtype=np.int64)
        if rows.any():
            b = _core(new.vals, new.local, d, rows, new.peel.cols)
            core = np.hstack([b, self._restricted(small, new.vals[rows], new.ends[:, rows])])
        ech, piv = _echelon(core)
        pinned = new.peel.rank + sum(c < new.width for c in piv)
        rank = small.rank + new.peel.rank + len(piv)
        if n1 >= d and rank == self.norm.rigid_rank(n1) and self._motions_independent:
            return pinned, _Stage(j, n1, m1, rank, self._motions)
        full = _Once(lambda: self._kernel(small, new, ech, piv))
        return pinned, _Stage(j, n1, m1, rank, lambda idx: full()[idx])

    def rigid(self, stage: _Stage, g: SimpleGraph) -> bool:
        """Whether stage, whose graph is g, reaches rigid_rank.  In the plane
        the tight-spanning count must agree, as in is_rigid_generic: a rank
        that falls short at p raises InconsistencyError (_plane_cross_check)."""
        rigid = stage.rank == self.norm.rigid_rank(stage.n)
        _plane_cross_check(g, self.norm, rigid, stage.rank)
        return rigid

    def _restricted(self, small: _Stage, vals: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """A K for the rows with the given values and ends, K small's kernel
        basis: each row's d values times K's rows at its first end, less
        those at its second, where the end is old."""
        out = np.zeros((len(vals), self.d * small.n - small.rank), dtype=np.int64)
        side, at = np.nonzero(ends < small.n)
        if out.size and at.size:
            term = (vals[at, :, None] * small.kernel(ends[side, at]) % PRIME).sum(axis=1)
            first = side == 0
            out[at[first]] += term[first]
            out[at[~first]] -= term[~first]
        return out % PRIME

    def _kernel(self, small: _Stage, new: _Added, ech: np.ndarray, piv: list[int]) -> np.ndarray:
        """The kernel basis of the stage a step reached from small, from the
        rows it added and the core's echelon form, as an (n, d, nullity)
        array (see the class docstring)."""
        d, n0 = self.d, small.n
        vals, local, peel, width = new.vals, new.local, new.peel, new.width
        ak = self._restricted(small, vals, new.ends)
        c, t = ak.shape[1], int(peel.cols.size) - 1
        red = _reduce(ech, piv)
        free = np.ones(width + c, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        f0 = free.size
        nullity = f0 + sum(d - len(rows) for _, rows in peel.order)
        y = np.zeros((t + 1, d, nullity), dtype=np.int64)  # the spare row t stays 0
        coef = np.zeros((c, nullity), dtype=np.int64)
        z = np.zeros((width + c, f0), dtype=np.int64)
        z[free, np.arange(f0)] = 1
        z[piv] = -red[:, free] % PRIME
        left = np.flatnonzero(peel.cols)
        y[left, :, :f0] = z[:width].reshape(left.size, d, f0)
        coef[:, :f0] = z[width:]
        akc = _matmul_mod_p(ak, coef)
        nxt = f0
        for v, rows in reversed(peel.order):
            # The kept rows are independent on v's columns, so every pivot of
            # [block | I] falls there: reduced, it is [E | T], T block = E.
            block = np.hstack([vals[rows], np.eye(len(rows), dtype=np.int64)])
            ech_v, piv_v = _echelon(block)
            red_v, tr = np.hsplit(_reduce(ech_v, piv_v), [d])
            ia, ib = local[:, rows]
            # Row e is vals_e on its first end's columns and -vals_e on its
            # second's, and A K_k coef beside: so vals_e y_v is vals_e y_u of
            # the other end u, less akc_e when v is the first end, plus it
            # when v is the second.  The spare row of y stands for old ends.
            rhs = (vals[rows, :, None] * y[ia + ib - v] % PRIME).sum(axis=1)
            rhs = (rhs + np.where(ia == v, -1, 1)[:, None] * akc[rows]) % PRIME
            y[v, piv_v] = (tr[:, :, None] * rhs[None] % PRIME).sum(axis=1) % PRIME
            for f in range(d):
                if f not in piv_v:
                    y[v, f, nxt] = 1
                    y[v, piv_v, nxt] = -red_v[:, f] % PRIME
                    nxt += 1
        old = small.kernel(np.arange(n0)).reshape(n0 * d, c)
        return np.concatenate([_matmul_mod_p(old, coef).reshape(n0, d, nullity), y[:t]])

    def _motions(self, idx: np.ndarray) -> np.ndarray:
        """The rigid motions mod PRIME at the vertex positions idx, in the
        order of _motion_generators: the d translations, then for q = 2 the
        rotation -x_j e_i + x_i e_j in each coordinate plane i < j."""
        d = self.d
        out = np.zeros((len(idx), d, self.norm.trivial_dim_generic), dtype=np.int64)
        out[:, range(d), range(d)] = 1
        if self.norm.euclidean:
            x, col = self.res[idx], d
            for i in range(d):
                for j in range(i + 1, d):
                    out[:, i, col], out[:, j, col] = -x[:, j] % PRIME, x[:, i]
                    col += 1
        return out

    @cached_property
    def _motions_independent(self) -> bool:
        """Whether the motions are independent on the first d vertices, and
        so on every stage that holds them."""
        m = self._motions(np.arange(self.d))
        return rank_mod_p(m.reshape(self.d * self.d, -1)) == m.shape[2]


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
    _check_seed(seed)
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
            missing = next((s for s in (k, k + 1) if v not in placements[s]), None)
            if missing is not None:
                raise PlacementError(f"the placement of stage {missing + 1} misses vertex {v}")
            if not np.allclose(placements[k][v], placements[k + 1][v], atol=1e-12, rtol=0.0):
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
