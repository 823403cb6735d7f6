import ast
import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import eager_flex_basis, grow_tight_graph, shuffled_copy, zero_extension_graph
from rigidkit import frameworks, towers
from rigidkit.errors import (
    ContinuationError,
    InconsistencyError,
    InputError,
    NestingError,
    PlacementError,
)
from rigidkit.frameworks import (
    PRIME,
    ExtensionResult,
    NormSpec,
    Placement,
    continuation_track,
    flex_extends,
    flex_growth_profile,
    flex_report,
    generic_rank,
    is_rigid_generic,
    kernel_basis,
    matrix_rank,
    pinned_ranks,
    placement_rank,
    random_placement,
    rank_mod_p,
    residues,
    rigidity_matrix,
    rigidity_matrix_mod_p,
    signed_power,
    trivial_motion_basis,
)
from rigidkit.graphs import SimpleGraph, complete_graph, cycle_graph

S3 = math.sqrt(3.0)

# Equilateral triangle with its apex at the origin.  In the cubic norm this
# framework carries one nontrivial flex; in the Euclidean norm it is rigid.
TRIANGLE = complete_graph(3)
TRI_PLACEMENT = Placement(2, {0: (-S3, 1.0), 1: (S3, 1.0), 2: (0.0, 0.0)})
CUBIC = NormSpec(2, 3)
EUCLID2 = NormSpec(2, 2)
TRI_FLEX = {0: (-1.0 / 3.0, -1.0), 1: (-1.0 / 3.0, 1.0), 2: (0.0, 0.0)}


def test_norm_spec_parse_and_validate():
    assert NormSpec.parse("d=2,q=3") == NormSpec(2, 3)
    assert NormSpec.parse("d=3, q=5/2") == NormSpec(3, Fraction(5, 2))
    assert NormSpec.parse("d=2,q=2.5").q == 2.5
    assert NormSpec.parse("d=+3,q=2") == NormSpec(3, 2)
    assert NormSpec(2, 2).euclidean
    assert not NormSpec(2, 3).euclidean
    assert NormSpec(3, 2).trivial_dim_generic == 6
    assert NormSpec(3, 3).trivial_dim_generic == 3
    with pytest.raises(InputError):
        NormSpec(1, 2)
    with pytest.raises(InputError):
        NormSpec(2, 1)
    with pytest.raises(InputError):
        NormSpec(2, 0.5)


@pytest.mark.parametrize("d", [2.5, 3.0, True, "3", None])
def test_norm_spec_refuses_a_dimension_that_is_not_an_integer(d):
    with pytest.raises(InputError, match="dimension d must be an integer"):
        NormSpec(d, 2)


@pytest.mark.parametrize("text", ["d=2.5,q=2", "d=x,q=2", "d=,q=2", "d=--3,q=2"])
def test_norm_spec_parse_reads_d_through_the_same_check(text):
    with pytest.raises(InputError, match="dimension d must be an integer"):
        NormSpec.parse(text)


@pytest.mark.parametrize("q", [1025, 1024.5, 2**31, math.inf, math.nan])
def test_norm_spec_refuses_q_past_1024(q):
    with pytest.raises(InputError, match=r"\(1, 1024\]"):
        NormSpec(2, q)


@pytest.mark.parametrize("q", ["3", None, [3], 3 + 0j, np.complex128(3), True])
def test_norm_spec_refuses_a_q_that_is_not_a_real_number(q):
    with pytest.raises(InputError, match="norm exponent q must be a real number"):
        NormSpec(2, q)


@pytest.mark.parametrize("q", [3, 2.5, Fraction(5, 2), np.int64(3), np.float64(2.5), np.float32(3)])
def test_norm_spec_takes_every_real_kind_of_q(q):
    assert NormSpec(2, q).q == q


def test_norm_spec_certifies_rigid_at_q_1024():
    verdict = is_rigid_generic(complete_graph(6), NormSpec(2, 1024))
    assert verdict.rigid and verdict.report.rank == NormSpec(2, 1024).rigid_rank(6)


def test_signed_power_is_odd():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    y = signed_power(x, 2.0)
    assert np.allclose(y, [-4.0, -0.25, 0.0, 0.25, 4.0])
    assert np.allclose(signed_power(-x, 2.0), -y)


def test_cubic_triangle_matrix_frozen():
    rm = rigidity_matrix(TRIANGLE, TRI_PLACEMENT, CUBIC)
    expected = np.array(
        [
            [-12.0, 0.0, 12.0, 0.0, 0.0, 0.0],
            [-3.0, 1.0, 0.0, 0.0, 3.0, -1.0],
            [0.0, 0.0, 3.0, 1.0, -3.0, -1.0],
        ]
    )
    assert TRIANGLE.edges == ((0, 1), (0, 2), (1, 2))
    assert TRIANGLE.vertices == (0, 1, 2)
    assert np.allclose(rm, expected, atol=1e-12)


def test_cubic_triangle_has_one_nontrivial_flex():
    rep = flex_report(TRIANGLE, TRI_PLACEMENT, CUBIC)
    assert (rep.rank, rep.nullity, rep.trivial_dim, rep.flex_dim) == (3, 3, 2, 1)
    assert rep.classification == "Flexible"
    rm = rigidity_matrix(TRIANGLE, TRI_PLACEMENT, CUBIC)
    u = np.array([TRI_FLEX[v] for v in TRIANGLE.vertices]).ravel()
    assert np.max(np.abs(rm @ u)) < 1e-10
    # The known flex, stripped of its translation part, spans the basis.
    triv = trivial_motion_basis(TRIANGLE, TRI_PLACEMENT, CUBIC)
    u_perp = u - triv.T @ (triv @ u)
    b = rep.nontrivial_flex_basis[0].ravel()
    cos = abs(u_perp @ b) / (np.linalg.norm(u_perp) * np.linalg.norm(b))
    assert cos > 1.0 - 1e-8


def test_euclidean_triangle_is_rigid_same_placement():
    rep = flex_report(TRIANGLE, TRI_PLACEMENT, EUCLID2)
    assert (rep.rank, rep.nullity, rep.trivial_dim, rep.flex_dim) == (3, 3, 3, 0)
    assert rep.classification == "Rigid"


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_flex_report_refuses_an_unusable_tolerance(tol):
    # Unchecked, nan ranks the rigid triangle 0 (Flexible), and -1 ranks a
    # collinear triangle (rank 2, one flex) 3 (Rigid).
    collinear = Placement(2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (3.0, 0.0)})
    for p in (TRI_PLACEMENT, collinear):
        with pytest.raises(InputError, match="tolerance must be finite and non-negative"):
            flex_report(TRIANGLE, p, EUCLID2, tol)
    assert flex_report(TRIANGLE, collinear, EUCLID2).rank == 2


def test_matrix_rows_match_finite_differences():
    g = SimpleGraph(range(4), [e for e in complete_graph(4).edges if e != (1, 3)])
    norm = NormSpec(2, 2.5)
    p = random_placement(g, norm, seed=7)
    rm = rigidity_matrix(g, p, norm)
    pts = p.array_for(g)
    qf = 2.5
    h = 1e-6

    def energy(flat, edge):
        xy = flat.reshape(-1, 2)
        a, b = edge
        ia, ib = g.index_of[a], g.index_of[b]
        return float(np.sum(np.abs(xy[ia] - xy[ib]) ** qf) / qf)

    flat = pts.ravel()
    for r, edge in enumerate(g.edges):
        for c in range(flat.size):
            bump = np.zeros_like(flat)
            bump[c] = h
            fd = (energy(flat + bump, edge) - energy(flat - bump, edge)) / (2 * h)
            assert fd == pytest.approx(rm[r, c], abs=1e-5)


def test_trivial_dim_degenerate_single_vertex():
    g = SimpleGraph([0], [])
    basis = trivial_motion_basis(g, Placement(2, {0: (0.0, 0.0)}), EUCLID2)
    # The rotation generator vanishes at the origin.
    assert basis.shape[0] == 2


def test_trivial_dim_two_vertices_euclidean():
    g = SimpleGraph([0, 1], [(0, 1)])
    p = Placement(2, {0: (0.0, 0.0), 1: (1.0, 0.0)})
    assert trivial_motion_basis(g, p, EUCLID2).shape[0] == 3
    assert trivial_motion_basis(g, p, CUBIC).shape[0] == 2


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 2.5])
def test_trivial_dim_at_matches_the_evaluated_motions(d, q):
    norm = NormSpec(d, q)
    for n in range(1, d + 3):
        g = complete_graph(n)
        p = random_placement(g, norm, seed=n)
        dim = trivial_motion_basis(g, p, norm).shape[0]
        assert norm.trivial_dim_at(n) == dim
        assert norm.rigid_rank(n) == d * n - dim


@pytest.mark.parametrize("q", [2, 3, 2.5])
def test_empty_graph_is_rigid(q):
    # No point carries a rigid motion, so the norm counts none.
    verdict = is_rigid_generic(SimpleGraph([], []), NormSpec(2, q))
    assert verdict.rigid
    assert (verdict.report.rank, verdict.report.trivial_dim) == (0, 0)


def fraction_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def residue(x):
    """Residue mod PRIME of the exact rational value of a float."""
    f = Fraction(x)
    return f.numerator * pow(f.denominator, -1, PRIME) % PRIME


def test_exact_rank_basics():
    assert rank_mod_p(np.array([[1, 2], [3, 4]])) == 2
    assert rank_mod_p(np.array([[2, 4], [1, 2]])) == 1
    assert rank_mod_p(np.zeros((0, 3), dtype=np.int64)) == 0
    # [[1/2, 1/3], [1/4, 1/6]] scaled by 12
    assert rank_mod_p(np.array([[6, 4], [3, 2]])) == 1
    # entries are reduced: PRIME itself is zero
    assert rank_mod_p(np.array([[PRIME, 0], [0, 1]])) == 1


@pytest.mark.parametrize("seed", range(6))
def test_rank_mod_p_matches_fraction_rank_on_planted_rank(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(4, 12, size=2)
    r = int(rng.integers(0, min(rows, cols) + 1))
    planted = rng.integers(-3, 4, size=(rows, r)) @ rng.integers(-3, 4, size=(r, cols))
    want = fraction_rank(planted.tolist())
    # Same residues, but entries at and far above PRIME: -1 becomes PRIME - 1,
    # and random multiples of PRIME push the rest up to about 2^51.
    big = planted % PRIME + PRIME * rng.integers(0, 2**20, size=planted.shape)
    big[planted == -1] = PRIME - 1
    assert big.max() >= PRIME
    assert rank_mod_p(big) == want
    assert rank_mod_p(big.T) == want


def test_rank_mod_p_all_entries_prime_minus_one():
    # Every product in the elimination is (PRIME - 1)^2, the largest there is.
    m = np.full((7, 9), PRIME - 1, dtype=np.int64)
    assert rank_mod_p(m) == 1
    m[np.arange(7), np.arange(7)] = 1
    assert rank_mod_p(m) == fraction_rank(np.where(m == PRIME - 1, -1, m).tolist())


def test_exact_matrix_matches_float_on_integer_points():
    g = complete_graph(4)
    pts = {0: (0, 0), 1: (3, 1), 2: (-2, 5), 3: (7, -4)}
    p = Placement(2, {v: tuple(float(x) for x in pt) for v, pt in pts.items()})
    rm = rigidity_matrix(g, p, CUBIC)
    exact = rm.astype(np.int64) % PRIME
    assert np.array_equal(rigidity_matrix_mod_p(g, p, CUBIC), exact)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_mod_p_matrix_is_float_matrix_mod_p_at_integer_points(q, d):
    # Differences of either sign up to 60, so the float entries are exact
    # integers and even powers must take their sign from the difference.
    g = complete_graph(6)
    rng = np.random.default_rng(10 * q + d)
    p = Placement(d, {v: tuple(rng.integers(-30, 31, size=d).astype(float)) for v in g.vertices})
    norm = NormSpec(d, q)
    float_matrix = rigidity_matrix(g, p, norm)
    assert (float_matrix < 0).any()
    expected = float_matrix.astype(np.int64) % PRIME
    assert np.array_equal(rigidity_matrix_mod_p(g, p, norm), expected)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 1024])
def test_exact_values_match_three_argument_pow(q):
    g = complete_graph(6)
    norm = NormSpec(3, q)
    p = random_placement(g, norm, q)
    vals, (ia, ib) = frameworks._exact_values(g, p, norm)
    pts = p.array_for(g).reshape(-1, 3)
    for r in range(g.n_edges):
        for i in range(3):
            x = Fraction(pts[ia[r], i]) - Fraction(pts[ib[r], i])
            m = abs(x).numerator * pow(abs(x).denominator, -1, PRIME) % PRIME
            sign = 1 if x > 0 else -1
            assert vals[r, i] == sign * pow(m, q - 1, PRIME) % PRIME


def test_residues_of_dyadic_values():
    xs = [0.375, -0.375, 1e-2, -1e-2, 0.3 + 1e-2, 2.0**-70, -(2.0**40) * 3, 0.0]
    assert residues(np.array(xs)).tolist() == [residue(x) for x in xs]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mod_p_matrix_at_dyadic_placement(q):
    # Points such as 0.375, and the same points shifted by 1e-2 along one
    # axis, as the special body-bar placement builds them.
    g = complete_graph(5)
    base = [(0.375, -0.625), (-0.125, 0.875), (0.5, 0.25)]
    coords = dict(enumerate(base))
    coords[3] = (base[0][0] + 1e-2, base[0][1])
    coords[4] = (base[1][0], base[1][1] - 1e-2)
    p = Placement(2, coords)
    norm = NormSpec(2, q)
    expected = []
    for a, b in g.edges:
        row = [0] * 10
        for i in range(2):
            x = Fraction(coords[a][i]) - Fraction(coords[b][i])
            val = (1 if x > 0 else -1 if x < 0 else 0) * abs(x) ** (q - 1)
            row[2 * a + i] = val.numerator * pow(val.denominator, -1, PRIME) % PRIME
            row[2 * b + i] = -val.numerator * pow(val.denominator, -1, PRIME) % PRIME
        expected.append(row)
    assert rigidity_matrix_mod_p(g, p, norm).tolist() == expected


def anchored_rank(m, free, d):
    part = m[:, np.repeat(free, d)]
    return rank_mod_p(part[part.any(axis=1)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_peeled_ranks_equal_elimination_ranks(q, d, seed):
    # 0-extension graphs peel down to their base; a cut edge leaves a
    # vertex of degree d - 1 and an added edge one of degree d + 1.
    rng = random.Random(100 * seed + 10 * q + d)
    norm = NormSpec(d, q)
    base = d + 1 if q == 2 else 2 * d
    full = zero_extension_graph(base + 12, d, base, seed)
    edges = list(full.edges)
    edges.pop(rng.randrange(len(edges)))
    cut = SimpleGraph(full.vertices, edges)
    extra = next(
        (a, b) for a in reversed(full.vertices) for b in full.vertices
        if a != b and not full.has_edge(a, b)
    )
    for g in (full, cut, SimpleGraph(full.vertices, full.edges + (extra,))):
        g = shuffled_copy(g, rng)
        p = random_placement(g, norm, seed)
        m = rigidity_matrix_mod_p(g, p, norm)
        assert placement_rank(g, p, norm) == rank_mod_p(m)
        for _ in range(3):
            anchor = set(rng.sample(g.vertices, rng.randint(0, g.n_vertices)))
            free = np.array([v not in anchor for v in g.vertices])
            got = pinned_ranks(g, p, norm, free)
            assert got == (rank_mod_p(m), anchored_rank(m, free, d))


# A triangle 0, 1, 2 and a vertex 3 joined to 0 and 1 on the line through
# them: 3's two rows are parallel on its own columns, and so are 0's and
# 1's once 2 is peeled.  In 3-space, vertex 4 is joined to 0, 1 and 2 of a
# tetrahedron and lies in their plane.
SINGULAR_BLOCKS = {
    "collinear-d2": (
        SimpleGraph(range(4), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
        Placement(2, {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (0.5, 1.5), 3: (1.0, 0.0)}),
        4,
    ),
    "coplanar-d3": (
        SimpleGraph(range(5), complete_graph(4).edges + ((0, 4), (1, 4), (2, 4))),
        Placement(
            3,
            {
                0: (0.0, 0.0, 0.0),
                1: (2.0, 0.0, 0.0),
                2: (0.0, 2.0, 0.0),
                3: (0.5, 0.5, 1.5),
                4: (1.0, 0.5, 0.0),
            },
        ),
        8,
    ),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_BLOCKS))
def test_peel_keeps_a_vertex_whose_block_is_singular(name):
    g, p, want = SINGULAR_BLOCKS[name]
    norm = NormSpec(p.dim, 2)
    m = rigidity_matrix_mod_p(g, p, norm)
    assert rank_mod_p(m) == want
    assert placement_rank(g, p, norm) == want
    for pinned in g.vertices:
        free = np.array([v != pinned for v in g.vertices])
        assert pinned_ranks(g, p, norm, free) == (want, anchored_rank(m, free, p.dim))


def drop_graphs(d, q, rng):
    """A 0-extension graph with six extra edges, a complete graph, and a
    complete graph less one to six edges (flexible or not), all shuffled."""
    base = d + 1 if q == 2 else 2 * d
    zero = zero_extension_graph(base + 10, d, base, rng.randrange(100))
    missing = [
        (a, b) for a in zero.vertices for b in zero.vertices if a < b and not zero.has_edge(a, b)
    ]
    full = complete_graph(base + rng.randrange(2, 6))
    less = list(full.edges)
    for _ in range(rng.randint(1, 6)):
        less.pop(rng.randrange(len(less)))
    braced = SimpleGraph(zero.vertices, zero.edges + tuple(rng.sample(missing, 6)))
    graphs = (braced, full, SimpleGraph(full.vertices, less))
    return [shuffled_copy(g, rng) for g in graphs]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_peel_with_drops_bounds_the_rank(q, d, seed):
    # The kept rows are rows of the matrix, so the bound never exceeds their
    # rank, nor the rank.  Points on a small integer grid are often collinear
    # or coplanar, so some blocks are singular there.
    rng = random.Random(1000 * seed + 10 * q + d)
    norm = NormSpec(d, q)
    for g in drop_graphs(d, q, rng):
        n, top = g.n_vertices, norm.rigid_rank(g.n_vertices)
        grid = np.array([rng.choices(range(3), k=d) for _ in range(n)], dtype=float)
        grid = Placement.from_array(g, grid)
        for p in (random_placement(g, norm, seed), grid):
            vals, ends = frameworks._exact_values(g, p, norm)
            m = rigidity_matrix_mod_p(g, p, norm)
            for budget in (max(g.n_edges - top, 0), rng.randrange(g.n_edges)):
                bound, dropped = frameworks._peeled_rank(
                    vals, ends, d, np.ones(n, dtype=bool), budget
                )
                kept = np.ones(g.n_edges, dtype=bool)
                kept[dropped] = False
                assert len(dropped) <= budget
                assert bound <= rank_mod_p(m[kept]) <= rank_mod_p(m)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_complete_graphs_certify_on_a_spanning_subgraph(q, d, monkeypatch):
    # K_n keeps a 0-extension graph on its K_{d+1} (q = 2) or K_{2d} base.
    # A Euclidean base peels too, so nothing is left to eliminate; a
    # non-Euclidean one is what the elimination receives.
    rng = random.Random(10 * q + d)
    norm = NormSpec(d, q)
    base = d + 1 if q == 2 else 2 * d
    core = [] if q == 2 else [(base * (base - 1) // 2, d * base)]
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return rank_mod_p(m)

    monkeypatch.setattr(frameworks, "rank_mod_p", recording)
    for n in (base + 1, rng.randint(base + 2, 29), 30):
        g = shuffled_copy(complete_graph(n), rng)
        shapes.clear()
        p = random_placement(g, norm, n)
        rank, dropped = frameworks._certified_rank(g, p, norm)
        kept = sorted(set(range(g.n_edges)) - set(dropped))
        assert rank == norm.rigid_rank(n) == len(kept) == g.n_edges - len(dropped)
        assert shapes == core
        assert rank_mod_p(rigidity_matrix_mod_p(g, p, norm)[kept]) == rank


def test_exact_rank_lays_out_only_the_core():
    # The graph of gate test_15 peels whole; its dense matrix would take
    # 3594 x 3600 int64 entries, 104 MB.
    g = shuffled_copy(zero_extension_graph(1200, 3, 4, seed=7), random.Random(15))
    norm = NormSpec(3, 2)
    p = random_placement(g, norm, 0)
    tracemalloc.start()
    try:
        rank = placement_rank(g, p, norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 3 * 1200 - 6
    assert peak < 16 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("q", [2, 3])
def test_numeric_rank_agrees_with_exact(seed, q):
    # K5 less an edge has 9 edges: rank 2*5 - 3 in the Euclidean plane,
    # 2*5 - 2 for q = 3.
    g = SimpleGraph(range(5), [e for e in complete_graph(5).edges if e != (0, 3)])
    norm = NormSpec(2, q)
    assert generic_rank(g, norm, seed=seed) == {2: 7, 3: 8}[q]
    # K4 is (2,2)-tight: full row rank 2*4 - 2.
    assert generic_rank(complete_graph(4), CUBIC, seed=5) == 6


def _placement_ranks(monkeypatch):
    calls = []
    real = frameworks.placement_rank
    monkeypatch.setattr(
        frameworks, "placement_rank", lambda *a: calls.append(a[1]) or real(*a)
    )
    return calls


def test_an_integer_q_verdict_ranks_one_placement(monkeypatch):
    from rigidkit.catalog import banana_tower

    g, norm = banana_tower(32), NormSpec(3, 2)
    calls = _placement_ranks(monkeypatch)
    verdict = is_rigid_generic(g, norm, seed=0)
    assert not verdict.rigid
    assert calls == [random_placement(g, norm, 0)] == [verdict.placement]
    assert generic_rank(g, norm, seed=0) == verdict.report.rank
    assert len(calls) == 2


def test_a_non_integer_q_verdict_still_redraws_while_short(monkeypatch):
    # K7 has 21 edges and ranks at most 18 in (R^3, l_{5/2}); the isolated
    # vertex lifts rigid_rank to 21 = |E|, so no draw reaches the stop.
    norm = NormSpec(3, Fraction(5, 2))
    g = SimpleGraph(range(8), complete_graph(7).edges)
    calls = _placement_ranks(monkeypatch)
    verdict = is_rigid_generic(g, norm, seed=4)
    assert not verdict.rigid and verdict.report.rank == 18
    assert calls == [random_placement(g, norm, 4 + t) for t in range(5)]


@pytest.mark.parametrize(
    "g,norm,expect",
    [
        (complete_graph(4), EUCLID2, True),
        (cycle_graph(4), EUCLID2, False),
        (complete_graph(4), CUBIC, True),
        (complete_graph(3), CUBIC, False),
        (complete_graph(3), EUCLID2, True),
    ],
)
def test_is_rigid_generic_with_planar_cross_check(g, norm, expect):
    verdict = is_rigid_generic(g, norm, seed=11)
    assert verdict.rigid is expect
    assert verdict.combinatorial is expect


SCALE_GRAPHS = {
    "laman-200": (lambda: grow_tight_graph("euclidean", 200, 9), EUCLID2),
    "laman-400": (lambda: grow_tight_graph("euclidean", 400, 0), EUCLID2),
    "22tight-200-q3": (lambda: grow_tight_graph("qnorm", 200, 0), CUBIC),
    "0ext-d3-120-q3": (lambda: zero_extension_graph(120, 3, 6, 0), NormSpec(3, 3)),
    "0ext-d3-240-q2": (lambda: zero_extension_graph(240, 3, 4, 0), NormSpec(3, 2)),
}


@pytest.mark.parametrize("name", SCALE_GRAPHS)
def test_is_rigid_generic_certifies_tight_graphs_at_scale(name):
    # Rigid by construction and tight, so the rank must reach |E|.  A float
    # rank cutoff misses it at these sizes.
    build, norm = SCALE_GRAPHS[name]
    g = build()
    verdict = is_rigid_generic(g, norm, seed=0)
    assert verdict.rigid
    assert verdict.report.rank == g.n_edges
    assert g.n_edges == norm.d * g.n_vertices - norm.trivial_dim_generic
    assert verdict.combinatorial in (None, True)
    # One edge less leaves one flex; its basis vector comes from the singular
    # vectors after the known rank.
    loose = SimpleGraph(g.vertices, g.edges[:-1])
    verdict = is_rigid_generic(loose, norm, seed=0)
    assert not verdict.rigid
    assert (verdict.report.rank, verdict.report.flex_dim) == (loose.n_edges, 1)
    u = verdict.report.nontrivial_flex_basis[0].ravel()
    m = rigidity_matrix(loose, verdict.placement, norm)
    assert np.linalg.norm(m @ u) < 1e-9 * np.linalg.norm(m)
    triv = trivial_motion_basis(loose, verdict.placement, norm)
    assert np.linalg.norm(triv @ u) < 1e-9


def test_flex_of_edge_extends_into_triangle():
    edge = SimpleGraph([0, 1], [(0, 1)])
    p = Placement(2, {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, 1.5)})
    # Rotation about vertex 0, restricted to the edge.
    u = {0: (0.0, 0.0), 1: (0.0, 2.0)}
    res = flex_extends(edge, TRIANGLE, p, u, EUCLID2)
    assert res.extends
    assert res.residual < 1e-10
    assert res.flex is not None and set(res.flex) == {0, 1, 2}


def test_cubic_triangle_flex_blocked_by_fourth_vertex():
    g4 = complete_graph(4)
    rng = np.random.default_rng(3)
    coords = dict(TRI_PLACEMENT.coords)
    coords[3] = tuple(rng.uniform(-1, 1, size=2))
    p = Placement(2, coords)
    res = flex_extends(TRIANGLE, g4, p, TRI_FLEX, CUBIC)
    assert not res.extends
    assert res.residual > 1e-3


def test_flex_extends_rejects_non_flex_input():
    g4 = complete_graph(4)
    p = Placement(
        2, {0: (0.0, 0.0), 1: (2.0, 0.1), 2: (1.0, 1.5), 3: (0.9, -1.2)}
    )
    junk = {0: (1.0, 0.0), 1: (0.0, 0.0), 2: (0.0, 5.0)}
    with pytest.raises(InputError):
        flex_extends(TRIANGLE, g4, p, junk, EUCLID2)


def _edge_lengths(g, p, qf):
    pts = p.array_for(g)
    return [
        float(np.sum(np.abs(pts[g.index_of[a]] - pts[g.index_of[b]]) ** qf) ** (1 / qf))
        for a, b in g.edges
    ]


def test_continuation_tracks_four_cycle_mechanism():
    g = cycle_graph(4)
    p0 = random_placement(g, EUCLID2, seed=2)
    rep = flex_report(g, p0, EUCLID2)
    assert rep.flex_dim == 1
    path = continuation_track(
        g, p0, EUCLID2, rep.flex_field(0), steps=10, step_length=0.05
    )
    assert len(path) == 10
    ref = _edge_lengths(g, p0, 2.0)
    for pl in path:
        got = _edge_lengths(g, pl, 2.0)
        assert got == pytest.approx(ref, abs=1e-8)
    moved = np.abs(path[-1].array_for(g) - p0.array_for(g)).max()
    assert moved > 1e-3


def test_continuation_on_rigid_framework_stays_put():
    p0 = random_placement(TRIANGLE, EUCLID2, seed=4)
    path = continuation_track(
        TRIANGLE, p0, EUCLID2, {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 1.0)},
        steps=3, step_length=0.1,
    )
    start = p0.array_for(TRIANGLE)
    for pl in path:
        assert np.allclose(pl.array_for(TRIANGLE), start, atol=1e-9)


def test_continuation_cubic_triangle_moves():
    path = continuation_track(
        TRIANGLE, TRI_PLACEMENT, CUBIC, TRI_FLEX, steps=5, step_length=0.02
    )
    ref = _edge_lengths(TRIANGLE, TRI_PLACEMENT, 3.0)
    got = _edge_lengths(TRIANGLE, path[-1], 3.0)
    assert got == pytest.approx(ref, abs=1e-8)
    moved = np.abs(path[-1].array_for(TRIANGLE) - TRI_PLACEMENT.array_for(TRIANGLE)).max()
    assert moved > 1e-3


@pytest.mark.parametrize("step_length", [math.nan, math.inf, -math.inf])
def test_continuation_refuses_a_non_finite_step(step_length):
    square = Placement(2, {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)})
    c4 = cycle_graph(4)
    flex = flex_report(c4, square, EUCLID2).flex_field(0)
    with pytest.raises(InputError, match="step_length must be finite"):
        continuation_track(c4, square, EUCLID2, flex, steps=2, step_length=step_length)
    for finite in (-0.05, 0.0):
        assert len(continuation_track(c4, square, EUCLID2, flex, steps=2, step_length=finite)) == 2


# The products of repeated squaring for whole exponents up to 4.
_PRODUCTS = {
    1: lambda x: x,
    2: lambda x: x * x,
    3: lambda x: x * (x * x),
    4: lambda x: (x * x) * (x * x),
}


def _reference_power(x, e):
    """x ** e for a float x >= 0: the products in repeated squaring's order
    for a whole e, Python's float pow (the C library's) otherwise."""
    return _PRODUCTS[e](x) if e in _PRODUCTS else x**e


def _per_edge_length_map(pts, g, qf):
    """Edge lengths and their Jacobian edge by edge, every power taken on
    one Python float by _reference_power."""
    idx = g.index_of
    d = pts.shape[1]
    lengths = np.zeros(g.n_edges)
    jac = np.zeros((g.n_edges, pts.size))
    for r, (a, b) in enumerate(g.edges):
        diff = (pts[idx[a]] - pts[idx[b]]).tolist()
        total = float(np.sum([_reference_power(abs(x), qf) for x in diff]))
        norm_q = _reference_power(total, 1.0 / qf)
        lengths[r] = norm_q
        scale = _reference_power(norm_q, qf - 1.0)
        row = np.array([np.sign(x) * _reference_power(abs(x), qf - 1.0) for x in diff]) / scale
        jac[r, d * idx[a] : d * idx[a] + d] = row
        jac[r, d * idx[b] : d * idx[b] + d] = -row
    return lengths, jac


@pytest.mark.parametrize("q", [2, 3, 4, 2.5])
def test_length_map_matches_per_edge_evaluation(q):
    # bit for bit: a last-bit change in either would move every tracked path
    graphs = [cycle_graph(4), TRIANGLE]
    graphs += [grow_tight_graph("euclidean", 12, seed=s) for s in range(8)]
    for d in (2, 3):
        norm = NormSpec(d, q)
        for seed, g in enumerate(graphs):
            pts = random_placement(g, norm, seed).array_for(g)
            lengths, jac = _per_edge_length_map(pts, g, float(q))
            got = frameworks._lq_lengths(pts, g, float(q))
            assert got.tobytes() == lengths.tobytes()
            got = frameworks._length_jacobian(pts, g, float(q))
            assert got.tobytes() == jac.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_quartic_matrix_is_the_product_of_the_differences(d):
    # bit for bit: a whole exponent is multiplied out, not left to a
    # vectorised pow whose last bit depends on the platform
    g = complete_graph(40)
    norm = NormSpec(d, 4)
    p = random_placement(g, norm, 3)
    pts, idx = p.array_for(g).reshape(-1, d), g.index_of
    want = np.zeros((g.n_edges, d * g.n_vertices))
    for r, (a, b) in enumerate(g.edges):
        diff = pts[idx[a]] - pts[idx[b]]
        want[r, d * idx[a] : d * idx[a] + d] = diff * diff * diff
        want[r, d * idx[b] : d * idx[b] + d] = -(diff * diff * diff)
    assert rigidity_matrix(g, p, norm).tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [1.5, 2.5])
def test_noninteger_matrix_takes_c_pow_per_entry(q):
    # bit for bit: numpy's vectorised pow differs from the C library's in
    # the last bit of some entries, depending on the machine
    g = complete_graph(40)
    norm = NormSpec(2, q)
    p = random_placement(g, norm, 3)
    pts, idx = p.array_for(g).reshape(-1, 2), g.index_of
    want = np.zeros((g.n_edges, 2 * g.n_vertices))
    for r, (a, b) in enumerate(g.edges):
        diff = (pts[idx[a]] - pts[idx[b]]).tolist()
        row = np.array([np.sign(x) * (abs(x) ** (q - 1)) for x in diff])
        want[r, 2 * idx[a] : 2 * idx[a] + 2] = row
        want[r, 2 * idx[b] : 2 * idx[b] + 2] = -row
    assert rigidity_matrix(g, p, norm).tobytes() == want.tobytes()


def test_non_finite_rows_raise_placement_error():
    # (1e200)^2 overflows, and an SVD of inf and nan entries fails
    g = TRIANGLE
    p = Placement(2, {0: (1e200, 0.0), 1: (-1e200, 1e200), 2: (0.0, -1e200)})
    with pytest.raises(PlacementError, match="q = 3"):
        flex_report(g, p, CUBIC)
    with pytest.raises(PlacementError, match="q = 3"):
        continuation_track(g, p, CUBIC, TRI_FLEX, steps=1, step_length=0.01)


def _power_nodes(tree):
    """The ** operators, and the calls and attributes named after a power,
    among the nodes of an AST."""
    names = {"pow", "power", "float_power", "__pow__"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            yield node
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow":
            yield node


def test_frameworks_has_one_power_routine():
    # The only ** are _power's pow and PRIME's definition, and the builtin
    # pow serves only the modular inverse of _inverse, which the eliminations
    # (_echelon, _reduce) call.
    tree = ast.parse(inspect.getsource(frameworks))
    allowed = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "_power":
            allowed += [n for n in _power_nodes(node) if isinstance(n, ast.BinOp)]
        elif isinstance(node, ast.Assign) and ast.unparse(node) == "PRIME = 2 ** 31 - 1":
            allowed += list(_power_nodes(node))
        elif isinstance(node, ast.FunctionDef) and node.name == "_inverse":
            allowed += [
                n for n in _power_nodes(node)
                if isinstance(n, ast.Call) and ast.unparse(n.args[1]) == "-1"
            ]
    assert len(allowed) == 3
    assert [ast.unparse(n) for n in _power_nodes(tree) if n not in allowed] == []


def _complete_svds(module):
    """The top-level definition around each np.linalg.svd call in a module
    that computes every singular vector (full_matrices and compute_uv not
    False)."""
    found = []
    for top in ast.parse(inspect.getsource(module)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.svd":
                flags = dict(zip(("full_matrices", "compute_uv"), node.args[1:]))
                flags.update((k.arg, k.value) for k in node.keywords)
                if all(ast.unparse(v) != "False" for v in flags.values()):
                    found.append(getattr(top, "name", None))
    return found


def test_one_kernel_per_sampled_framework():
    # A kernel at a known rank is computed by report_at_rank alone; the
    # relative-rigidity witness reads it off the flex report.
    assert sorted(_complete_svds(frameworks)) == ["kernel_basis", "report_at_rank"]
    assert _complete_svds(towers) == []
    imported = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(towers)))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("frameworks", "rigidkit.frameworks")
        for alias in node.names
    ]
    # The one private name is the tower carry, whose ranks mod PRIME are
    # not a float kernel.
    assert imported and [n for n in imported if n.startswith("_")] == ["_Carry"]


@pytest.mark.parametrize(
    "d, q, seed", [(2, 2, 0), (3, 2, 1), (2, 3, 2), (3, 4, 3), (2, Fraction(5, 2), 4)]
)
def test_bases_read_on_demand_match_the_eager_formula(d, q, seed):
    # bit for bit: the basis a report builds when read is the one it used to
    # build on construction
    norm = NormSpec(d, q)
    full = zero_extension_graph(24, d, d + 1 if q == 2 else 2 * d, seed)
    g = SimpleGraph(full.vertices, full.edges[:-2])
    verdict = is_rigid_generic(g, norm, seed=seed)
    rep = verdict.report
    assert rep.flex_dim > 0
    want = eager_flex_basis(g, verdict.placement, norm, rep.rank)
    assert len(rep.nontrivial_flex_basis) == len(want) == rep.flex_dim
    assert all(np.array_equal(a, b) for a, b in zip(rep.nontrivial_flex_basis, want))
    p = random_placement(g, norm, seed + 50)
    rep = flex_report(g, p, norm)
    want = eager_flex_basis(g, p, norm)
    assert len(rep.nontrivial_flex_basis) == len(want) == rep.flex_dim > 0
    assert all(np.array_equal(a, b) for a, b in zip(rep.nontrivial_flex_basis, want))


def _flexible_framework():
    """A 0-extension graph less two edges at a uniform placement: flexible
    in 3-space."""
    norm = NormSpec(3, 2)
    full = zero_extension_graph(20, 3, 4, 5)
    g = SimpleGraph(full.vertices, full.edges[:-2])
    return g, random_placement(g, norm, 5), norm


def test_flex_report_takes_singular_vectors_only_for_its_basis(monkeypatch):
    # Ranked from singular values alone; kernel_basis and
    # trivial_motion_basis take vectors when the basis is read, and the
    # basis itself the thin SVD of the projected kernel.
    g, p, norm = _flexible_framework()
    svd, callers = np.linalg.svd, []

    def recorded(a, full_matrices=True, compute_uv=True, **kw):
        if compute_uv:
            callers.append(inspect.currentframe().f_back.f_code.co_name)
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    rep = flex_report(g, p, norm)
    assert rep.flex_dim == 2 and callers == []
    assert len(rep.nontrivial_flex_basis) == 2
    assert callers == ["kernel_basis", "trivial_motion_basis", "nontrivial_flex_basis"]


def test_flex_report_basis_must_match_its_counts(monkeypatch):
    g, p, norm = _flexible_framework()
    real = frameworks.kernel_basis
    monkeypatch.setattr(frameworks, "kernel_basis", lambda m, eps: real(m, eps)[1:])
    rep = flex_report(g, p, norm)
    assert (rep.nullity, rep.trivial_dim, rep.flex_dim) == (8, 6, 2)
    with pytest.raises(InconsistencyError, match="kernel basis has 7 rows, .* counted 8"):
        rep.nontrivial_flex_basis


def test_array_placements_equal_their_mapping_twins():
    g = SimpleGraph([4, 1, 7], [(1, 4), (4, 7)])
    arr = np.array([[0.5, -1.0], [2.0, 0.25], [-0.0, 3.0]])
    p = Placement.from_array(g, arr)
    twin = Placement(2, {4: (0.5, -1.0), 1: (2.0, 0.25), 7: (-0.0, 3.0)})
    assert p == twin and repr(p) == repr(twin)
    arr[0, 0] = 9.0  # the placement keeps a copy
    kept = p.array_for(g)
    assert kept is p.array_for(g) and not kept.flags.writeable
    assert kept.dtype == np.float64 and np.array_equal(kept, twin.array_for(g))
    assert np.array_equal(kept[0], [0.5, -1.0])
    other = SimpleGraph([7, 4], [(4, 7)])
    assert np.array_equal(p.array_for(other), [[-0.0, 3.0], [0.5, -1.0]])
    assert np.array_equal(twin.array_for(other), p.array_for(other))
    part = p.restrict([1, 7]).array_for(SimpleGraph([1, 7]))
    assert np.array_equal(part, [[2.0, 0.25], [-0.0, 3.0]])
    with pytest.raises(PlacementError, match=r"placement misses vertices \[2\]"):
        p.array_for(SimpleGraph([1, 2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_placements_name_the_first_non_finite_vertex(bad):
    g = SimpleGraph([3, 8, 5])
    arr = np.zeros((3, 2))
    arr[1, 1] = arr[2, 0] = bad
    message = "^vertex 8 has a coordinate that is not a finite float$"
    with pytest.raises(PlacementError, match=message):
        Placement.from_array(g, arr)
    with pytest.raises(PlacementError, match="row count"):
        Placement.from_array(g, arr[:2])


@pytest.mark.parametrize("seed", [-1, True, 1.5, "1"])
def test_seeds_must_be_non_negative_integers(seed):
    # numpy would raise its own ValueError or TypeError, or read True as 1.
    k4 = complete_graph(4)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        random_placement(k4, EUCLID2, seed)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        is_rigid_generic(k4, EUCLID2, seed=seed)


def test_numpy_integer_seeds_draw_as_ints():
    k4 = complete_graph(4)
    assert random_placement(k4, EUCLID2, np.int64(3)) == random_placement(k4, EUCLID2, 3)


def test_growth_profile_cancels_when_bracing_appears():
    c4 = cycle_graph(4)
    braced = SimpleGraph(c4.vertices, c4.edges + ((0, 2),))
    p = random_placement(braced, EUCLID2, seed=9)
    prof = flex_growth_profile([c4, braced], [p.restrict(c4.vertices), p], EUCLID2)
    assert prof.cancellation_stage == 1
    assert len(prof.speeds) == 1
    assert prof.speeds[0] == 1.0


def test_growth_profile_names_a_vertex_a_placement_misses():
    c4 = cycle_graph(4)
    pendant = SimpleGraph(range(5), c4.edges + ((3, 4),))
    p = random_placement(pendant, EUCLID2, seed=9)
    with pytest.raises(PlacementError, match="placement of stage 1 misses vertex 3"):
        flex_growth_profile([c4, pendant], [p.restrict([0, 1, 2]), p], EUCLID2)


def test_growth_profile_checks_nesting_as_towers_do():
    c4 = cycle_graph(4)
    braced = SimpleGraph(c4.vertices, c4.edges + ((0, 2),))
    p = random_placement(braced, EUCLID2, seed=9)
    with pytest.raises(NestingError, match="stage 2 does not contain stage 1") as err:
        flex_growth_profile([c4, braced, c4], [p, p, p], EUCLID2)
    assert err.value.index == 2


def _rank_families():
    """Calls like those of the benchmark's generic, relative-towers and
    multibody workloads: generic verdicts on 0-extension and Laman graphs,
    rigid, one edge short and one over; deep, prefix and two-block towers;
    and body-and-bar validation, decisions, placements and towers."""
    from helpers import random_tight_multigraph, realize_bodybar
    from rigidkit import bodybar
    from rigidkit.catalog import banana_tower
    from rigidkit.graphs import Tower, graph_union, induced_subgraph

    calls = []
    for d, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        norm = NormSpec(d, q)
        base = d + 1 if q == 2 else 2 * d
        full = zero_extension_graph(30, d, base, d + q)
        missing = next((a, b) for a in range(30) for b in range(a) if not full.has_edge(a, b))
        cut = SimpleGraph(full.vertices, full.edges[:-1])
        braced = SimpleGraph(full.vertices, full.edges + (missing,))
        for g in (full, cut, braced):
            calls.append(lambda g=g, norm=norm: is_rigid_generic(g, norm, seed=1))
        prefix = Tower([induced_subgraph(full, range(m)) for m in (base, base + 4, base + 8, 30)])
        calls.append(lambda t=prefix, norm=norm: towers.tower_rigidity(t, norm, seed=1))
        calls.append(lambda t=prefix, norm=norm: towers.relatively_rigid_subsequence(t, norm, seed=1))
        shifted = SimpleGraph(
            [v + 100 for v in full.vertices], [(a + 100, b + 100) for a, b in full.edges]
        )
        apart = graph_union(full, shifted)
        joined = SimpleGraph(apart.vertices, apart.edges + ((0, 100), (1, 101)))
        calls.append(lambda g=joined, h=apart, norm=norm: towers.relative_rigidity(g, h, norm, seed=1))
        two = Tower([full, apart, joined])
        calls.append(lambda t=two, norm=norm: towers.tower_rigidity(t, norm, seed=1))
        calls.append(lambda t=two, norm=norm: towers.relatively_rigid_subsequence(t, norm, seed=1))
        m = realize_bodybar(random_tight_multigraph(5, norm.trivial_dim_generic, d + q), norm)
        calls.append(lambda m=m, norm=norm: bodybar.tay_decide(m, norm, seed=1))
        calls.append(lambda m=m, norm=norm: bodybar.validate_multibody(m.underlying, m.bodies, norm))
        if not norm.euclidean:
            calls.append(lambda m=m, norm=norm: bodybar.special_placement(m, norm, seed=1))
    laman = grow_tight_graph("euclidean", 60, 3)
    calls.append(lambda: is_rigid_generic(laman, EUCLID2, seed=1))
    bananas = Tower([banana_tower(k) for k in range(1, 5)])
    calls.append(lambda: towers.tower_rigidity(bananas, NormSpec(3, 2), seed=1))
    calls.append(lambda: towers.relatively_rigid_subsequence(bananas, NormSpec(3, 2), seed=1))
    return calls


def test_no_empty_matrix_reaches_the_elimination(monkeypatch):
    # A peel that leaves no live row or no free column has nothing left to
    # rank, so rank_mod_p is not called on it.
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return rank_mod_p(m)

    monkeypatch.setattr(frameworks, "rank_mod_p", recording)
    for call in _rank_families():
        call()
    assert shapes and [s for s in shapes if 0 in s] == []
