import json
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import (
    assert_witness_flex,
    exact_kernel,
    glued_relative_nullities,
    grow_tight_graph,
    random_graph,
    record_complete_svds,
    seeded_tight_witnesses,
    unskipped_rigid_container_2d,
    zero_extension_graph,
)
import rigidkit.frameworks
from rigidkit import jsonio, towers
from rigidkit.catalog import banana_tower
from rigidkit.cli import run
from rigidkit.errors import InconsistencyError, InputError
from rigidkit.frameworks import (
    NormSpec,
    flex_report,
    is_rigid_generic,
    kernel_basis,
    pinned_ranks,
    random_placement,
    rigidity_matrix,
    trivial_motion_basis,
)
from rigidkit.graphs import (
    MultiGraph,
    SimpleGraph,
    Tower,
    complete_graph,
    cycle_graph,
    graph_union,
    induced_subgraph,
)
from rigidkit.sparsity import (
    LAMAN,
    QNORM_2D,
    PebbleGame,
    SparsityCount,
    is_sparse,
    tight_spanning_subgraph,
)
from rigidkit.towers import (
    LAMAN_TOWER_MINIMAL,
    LAMAN_TOWER_NOT,
    LAMAN_TOWER_RIGID,
    TOWER_FLEXIBLE,
    TOWER_RIGID,
    TOWER_UNDECIDED,
    anchor_threshold,
    exhaustive_rigid_container,
    laman_tower_decide,
    relative_rigidity,
    relatively_rigid_subsequence,
    rigid_container_2d,
    sequential_rigidity_2d,
    tower_rigidity,
)

EUCLID2 = NormSpec(2, 2)
CUBIC2 = NormSpec(2, 3)
C4 = cycle_graph(4)
# The two ends of a C4 diagonal: no edge between them, so the mechanism
# stretches the pair and relative rigidity fails.
DIAGONAL = SimpleGraph([0, 2], [])


# ---- sparsity additions --------------------------------------------------


def test_accepted_edges_drop_latest_dependent_edge():
    k4 = complete_graph(4)
    accepted = PebbleGame.over(k4, LAMAN).accepted
    thin = SimpleGraph(k4.vertices, [k4.edges[i] for i in accepted])
    assert thin.edges == k4.edges[:5]
    assert is_sparse(thin, LAMAN).tight


def test_tight_spanning_subgraph_none_when_underbraced():
    assert tight_spanning_subgraph(C4, LAMAN) is None


# ---- relative rigidity ---------------------------------------------------


def test_k3_relatively_rigid_in_k4():
    verdict = relative_rigidity(complete_graph(4), complete_graph(3), EUCLID2)
    assert verdict.relatively_rigid
    assert verdict.witness_flex is None
    assert verdict.nullity_graph == verdict.nullity_anchored == 3


def test_diagonal_pair_not_relatively_rigid_in_c4():
    verdict = relative_rigidity(C4, DIAGONAL, EUCLID2, seed=3)
    assert not verdict.relatively_rigid
    assert verdict.nullity_graph == 4
    assert verdict.nullity_anchored == 3
    assert verdict.witness_flex is not None


def test_edge_anchor_is_trivially_relatively_rigid():
    """An actual bar has no nontrivial flexes of its own to extend."""
    bar = SimpleGraph([0, 1], [(0, 1)])
    assert relative_rigidity(C4, bar, EUCLID2).relatively_rigid


def test_witness_flex_is_a_unit_nontrivial_kernel_element():
    verdict = relative_rigidity(C4, DIAGONAL, EUCLID2, seed=3)
    u = verdict.witness_flex
    vec = np.concatenate([u[v] for v in C4.vertices])
    rm = rigidity_matrix(C4, verdict.placement, EUCLID2)
    assert np.max(np.abs(rm @ vec)) < 1e-10
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    triv = trivial_motion_basis(C4, verdict.placement, EUCLID2)
    residual = vec - triv.T @ (triv @ vec)
    assert np.linalg.norm(residual) > 1e-6


@pytest.mark.parametrize(
    "h",
    [
        SimpleGraph([0], []),
        SimpleGraph([0, 99], [(0, 99)]),
    ],
)
def test_relative_rigidity_input_errors(h):
    with pytest.raises(InputError):
        relative_rigidity(complete_graph(4), h, EUCLID2)


def test_relative_rigidity_nonEuclidean_needs_four_anchors():
    with pytest.raises(InputError):
        relative_rigidity(complete_graph(4), complete_graph(3), CUBIC2)
    verdict = relative_rigidity(complete_graph(5), complete_graph(4), CUBIC2)
    assert verdict.relatively_rigid


def test_relative_rigidity_at_scale():
    # A 200-vertex Laman graph grown from a 100-vertex one: relatively rigid.
    small = grow_tight_graph("euclidean", 100, 21)
    big = grow_tight_graph("euclidean", 200, 22, small, small.edges)
    verdict = relative_rigidity(big, small, EUCLID2, seed=1)
    assert verdict.relatively_rigid
    assert verdict.nullity_graph == verdict.nullity_anchored == 3
    # Two 100-vertex Laman blocks joined by two bars keep one joint freedom,
    # which pinning two vertices of each block removes.
    right = grow_tight_graph("euclidean", 100, 23)
    shifted = [(a + 100, b + 100) for a, b in right.edges]
    joined = SimpleGraph(range(200), small.edges + tuple(shifted) + ((5, 105), (50, 150)))
    anchor = SimpleGraph([0, 1, 100, 101], [])
    verdict = relative_rigidity(joined, anchor, EUCLID2, seed=2)
    assert not verdict.relatively_rigid
    assert (verdict.nullity_graph, verdict.nullity_anchored) == (4, 3)
    u = np.concatenate([verdict.witness_flex[v] for v in joined.vertices])
    rm = rigidity_matrix(joined, verdict.placement, EUCLID2)
    assert np.linalg.norm(rm @ u) < 1e-8 * np.linalg.norm(rm)


def _pinning_case(idx):
    """Graph, anchor and norm for one pinned-against-glued trial: d = 2, 3
    and q = 2, 3, 4, 2.5 in turn, anchors of every size from the threshold
    up, induced, edgeless or half their induced edges."""
    rng = random.Random(idx)
    norm = NormSpec((2, 3)[idx % 2], (2, 3, 4, 2.5)[idx // 2 % 4])
    need = anchor_threshold(norm)
    n = rng.randint(need + 1, 12)
    g = random_graph(n, rng.uniform(0.3, 0.9), seed=idx)
    verts = sorted(rng.sample(range(n), rng.randint(need, n)))
    induced = induced_subgraph(g, verts)
    shapes = (induced, SimpleGraph(verts, []), SimpleGraph(verts, induced.edges[::2]))
    return g, shapes[idx // 8 % 3], norm


def _check_against_glued(g, h, norm, seed):
    verdict = relative_rigidity(g, h, norm, seed=seed)
    graph, glued = glued_relative_nullities(g, h, norm, seed)
    assert (verdict.nullity_graph, verdict.nullity_anchored) == (graph, glued)
    assert verdict.relatively_rigid == (graph == glued)
    if verdict.relatively_rigid:
        assert verdict.witness_flex is None
    else:
        assert_witness_flex(g, h, norm, verdict)
    return verdict


@pytest.mark.parametrize("idx", range(72))
def test_pinned_nullities_match_glued_reference(idx):
    _check_against_glued(*_pinning_case(idx), seed=idx)


def test_pinning_cases_reach_both_verdicts():
    verdicts = {
        relative_rigidity(*_pinning_case(idx), seed=idx).relatively_rigid
        for idx in range(72)
    }
    assert verdicts == {True, False}


_RIGID_3D = zero_extension_graph(9, 3, 4, 5)
_LOOSE_3D = SimpleGraph(_RIGID_3D.vertices, _RIGID_3D.edges[:-1])


@pytest.mark.parametrize(
    "g, h, norm, rigid",
    [
        (complete_graph(5), complete_graph(5), NormSpec(3, 2), True),
        (cycle_graph(6), cycle_graph(6), EUCLID2, False),
        (complete_graph(7), complete_graph(7), NormSpec(3, 3), True),
        # Two anchor vertices in 3-space keep 5 of the 6 trivial motions:
        # the rotation about their axis fixes both.
        (_RIGID_3D, SimpleGraph([0, 6], []), NormSpec(3, 2), True),
        (_LOOSE_3D, SimpleGraph([0, 6], []), NormSpec(3, 2), True),
        (_LOOSE_3D, SimpleGraph([0, 8], []), NormSpec(3, 2), False),
    ],
    ids=[
        "h=g-rigid",
        "h=g-flexible",
        "h=g-cubic",
        "two-anchors",
        "loose-off-anchor",
        "loose-at-anchor",
    ],
)
def test_pinned_nullities_on_chosen_anchors(g, h, norm, rigid):
    assert _check_against_glued(g, h, norm, seed=4).relatively_rigid == rigid


def test_anchored_nullity_above_graph_nullity_raises(monkeypatch):
    # A pinned rank that falls short mod p makes the anchored kernel look
    # larger than g's, which cannot happen over Q.
    real = rigidkit.frameworks.pinned_ranks

    def short_pinned(*args):
        rank_g, rank_pinned = real(*args)
        return rank_g, rank_pinned - 1

    monkeypatch.setattr(rigidkit.frameworks, "pinned_ranks", short_pinned)
    with pytest.raises(InconsistencyError, match="anchored nullity 4 exceeds graph nullity 3"):
        relative_rigidity(complete_graph(4), complete_graph(3), EUCLID2)


_K4 = [(a, b) for a, b in combinations(range(4), 2)]
# Two K4 blocks joined by one bar: rigid blocks under any lq norm in the
# plane, hinged by the bar.  The anchor lists its vertices out of g's order.
_HINGED = SimpleGraph(range(8), _K4 + [(a + 4, b + 4) for a, b in _K4] + [(0, 4)])


# The two blocks of _HINGED without the hinge bar.  At a large q the powers
# of small coordinate differences underflow, so some rows of g's float
# matrix are tiny or all zero while the exact rank sees them.
_TWO_K4 = SimpleGraph(range(8), _K4 + [(a + 4, b + 4) for a, b in _K4])


# Failing pairs (g, h): h is not relatively rigid in g.
_FAILING = pytest.mark.parametrize(
    "g, h, norm",
    [
        (C4, DIAGONAL, EUCLID2),
        (_LOOSE_3D, SimpleGraph([8, 0], []), NormSpec(3, 2)),
        (_HINGED, SimpleGraph([5, 0, 4, 1], []), CUBIC2),
        (_HINGED, SimpleGraph([5, 0, 4, 1], []), NormSpec(2, 4)),
    ],
    ids=["c4-diagonal", "loose-3d", "hinged-cubic", "hinged-quartic"],
)


@_FAILING
def test_failing_verdict_takes_its_witness_from_one_svd_of_g(monkeypatch, g, h, norm):
    """A failing verdict runs no complete SVD until its witness is read,
    and then one, of g's rigidity matrix.  The witness moves h away from
    the rigid motions by the top singular value of K_h (I - P), K g's
    kernel rows and P the projector onto the motions on h: no unit flex of
    g moves h farther."""
    shapes = record_complete_svds(monkeypatch)
    verdict = relative_rigidity(g, h, norm, seed=4)
    assert not verdict.relatively_rigid
    assert shapes == []
    verdict.witness_flex
    monkeypatch.undo()
    assert shapes == [(g.n_edges, norm.d * g.n_vertices)]
    assert_witness_flex(g, h, norm, verdict)
    p = verdict.placement
    m = rigidity_matrix(g, p, norm)
    kern = kernel_basis(m)
    assert kern.shape[0] == verdict.nullity_graph
    cols = [norm.d * g.index_of[v] + i for v in h.vertices for i in range(norm.d)]
    triv = trivial_motion_basis(h, p, norm)
    k_h = kern[:, cols]
    top = np.linalg.svd(k_h - (k_h @ triv.T) @ triv, compute_uv=False)[0]
    u_h = np.concatenate([verdict.witness_flex[v] for v in h.vertices])
    moved = np.linalg.norm(u_h - triv.T @ (triv @ u_h))
    assert moved == pytest.approx(top, rel=1e-9)


@_FAILING
def test_witness_lies_in_the_exact_kernel_of_g(g, h, norm):
    # g's kernel over the rationals at the sampled placement: the witness
    # is a float flex of the matrix rounded from it.
    for seed in range(10):
        verdict = relative_rigidity(g, h, norm, seed=seed)
        assert not verdict.relatively_rigid
        kern = exact_kernel(g, verdict.placement, norm)
        assert kern.shape[0] == verdict.nullity_graph
        u = np.concatenate([verdict.witness_flex[v] for v in g.vertices])
        assert np.linalg.norm(u - kern.T @ (kern @ u)) < 1e-9


def _analyze_generic(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(jsonio.jsonable(jsonio.graph_to_json(C4))))
    return run(["analyze", "--generic", "--norm", "d=2,q=2", str(path)])


_TWO_K4_HINGED = Tower([_TWO_K4, _HINGED])


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda tmp: is_rigid_generic(C4, EUCLID2).rigid, False),
        (lambda tmp: tower_rigidity(_TWO_K4_HINGED, EUCLID2).status, TOWER_FLEXIBLE),
        (lambda tmp: relatively_rigid_subsequence(_TWO_K4_HINGED, EUCLID2), (0,)),
        (lambda tmp: exhaustive_rigid_container(C4, DIAGONAL, EUCLID2), None),
        (_analyze_generic, 0),
    ],
    ids=["is-rigid-generic", "tower-rigidity", "subsequence", "exhaustive", "cli-analyze"],
)
def test_verdicts_that_read_no_vectors_run_no_complete_svd(monkeypatch, tmp_path, call, expected):
    # Flexible reports and failing pairs build their bases and witnesses
    # only when those are read, and none of these reads them.
    shapes = record_complete_svds(monkeypatch)
    assert call(tmp_path) == expected
    assert shapes == []


def _assert_unit_witness(verdict):
    assert not verdict.relatively_rigid
    u = np.concatenate([verdict.witness_flex[v] for v in _HINGED.vertices])
    assert np.isfinite(u).all()
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "q, seed", [(200, s) for s in (0, 2, 3, 4, 8, 14, 16)] + [(150, 2), (150, 16)]
)
def test_witness_at_large_q_is_a_finite_unit_flex(q, seed):
    _assert_unit_witness(relative_rigidity(_HINGED, _TWO_K4, NormSpec(2, q), seed=seed))


def test_witness_beside_rows_that_underflow_to_zero():
    norm = NormSpec(2, 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = relative_rigidity(_HINGED, _TWO_K4, norm, seed=0)
    # An edge whose coordinate differences are all below about 0.48 has an
    # all-zero row: 0.48^1023 is under the smallest subnormal.
    assert not rigidity_matrix(_HINGED, verdict.placement, norm).any(axis=1).all()
    _assert_unit_witness(verdict)


# ---- rigid containers in the plane ---------------------------------------


def test_container_for_k3_in_k4():
    container = rigid_container_2d(complete_graph(4), complete_graph(3), 2)
    assert container is not None
    assert complete_graph(3).is_subgraph_of(container)
    assert container.is_subgraph_of(complete_graph(4))
    assert is_rigid_generic(container, EUCLID2).rigid


def test_no_container_for_diagonal_in_c4():
    assert rigid_container_2d(C4, DIAGONAL, 2) is None


def test_container_under_cubic_count():
    container = rigid_container_2d(complete_graph(4), C4, 3)
    assert container is not None
    assert is_rigid_generic(container, CUBIC2).rigid


def test_container_survives_dependent_edges():
    """Redundant edges must be thinned away before the pebble queries run."""
    g = graph_union(complete_graph(4), complete_graph(4, offset=2))
    assert not is_sparse(g, LAMAN).sparse
    container = rigid_container_2d(g, SimpleGraph([0, 5], []), 2)
    assert container is not None
    assert is_rigid_generic(container, EUCLID2).rigid


def _random_suite(idx: int):
    """Graph, anchor and exponent for one equivalence trial."""
    rng = random.Random(idx)
    q = (2, 3, 2.5)[idx % 3]
    norm = NormSpec(2, q)
    mode = "euclidean" if q == 2 else "qnorm"
    n = rng.randint(5, 9)
    g = grow_tight_graph(mode, n, seed=idx * 17 + 1)
    if idx % 2:
        # Half the suites lose an edge so relative rigidity can fail.
        cut = rng.choice(g.edges)
        g = SimpleGraph(g.vertices, [e for e in g.edges if e != cut])
    low = 2 if q == 2 else 4
    size = rng.randint(low, min(n, low + 2))
    anchor_vertices = rng.sample(sorted(g.vertex_set), size)
    h = induced_subgraph(g, sorted(anchor_vertices))
    return g, h, q, norm


@pytest.mark.parametrize("idx", range(100))
def test_planar_container_matches_relative_rigidity(idx):
    g, h, q, norm = _random_suite(idx)
    verdict = relative_rigidity(g, h, norm, seed=idx)
    container = rigid_container_2d(g, h, q)
    assert verdict.relatively_rigid == (container is not None)
    if container is not None:
        assert h.is_subgraph_of(container)
        assert is_rigid_generic(container, norm, seed=idx).rigid
    else:
        u = verdict.witness_flex
        vec = np.concatenate([u[v] for v in g.vertices])
        rm = rigidity_matrix(g, verdict.placement, norm)
        assert np.max(np.abs(rm @ vec)) < 1e-10
        triv = trivial_motion_basis(g, verdict.placement, norm)
        assert np.linalg.norm(vec - triv.T @ (triv @ vec)) > 1e-6


# ---- tower certification -------------------------------------------------


def test_nested_complete_graphs_certify_rigid():
    t = Tower([complete_graph(4), complete_graph(5), complete_graph(6)])
    verdict = tower_rigidity(t, EUCLID2)
    assert verdict.status == TOWER_RIGID
    assert verdict.relatively_rigid_prefix == 3


def test_constant_c4_tower_certifies_flexible():
    verdict = tower_rigidity(Tower([C4, C4]), EUCLID2)
    assert verdict.status == TOWER_FLEXIBLE
    assert verdict.relatively_rigid_prefix == 1


def test_truncated_tower_stays_undecided():
    t = Tower([C4, C4], target=complete_graph(4))
    verdict = tower_rigidity(t, EUCLID2)
    assert verdict.status == TOWER_UNDECIDED
    assert not verdict.vertex_complete or verdict.relatively_rigid_prefix == 1


# K3, then K3 with a pendant vertex: each stage pins the one before, yet the
# final stage is flexible.
K3_PENDANT = SimpleGraph(range(4), [*complete_graph(3).edges, (2, 3)])


def test_declared_final_stage_is_tested_against_itself():
    t = Tower([complete_graph(3), K3_PENDANT], target=K3_PENDANT)
    verdict = tower_rigidity(t, EUCLID2)
    assert verdict.status == TOWER_FLEXIBLE
    assert verdict.relatively_rigid_prefix == 2
    # read as a truncated presentation, the same stages certify rigid
    assert tower_rigidity(Tower(t.stages), EUCLID2).status == TOWER_RIGID


def test_declared_rigid_final_stage_keeps_full_prefix():
    k4 = complete_graph(4)
    verdict = tower_rigidity(Tower([complete_graph(3), k4], target=k4), EUCLID2)
    assert verdict.status == TOWER_RIGID
    assert verdict.relatively_rigid_prefix == 2


def test_vertex_incomplete_tower_stays_undecided():
    t = Tower([complete_graph(3)], target=complete_graph(4))
    verdict = tower_rigidity(t, EUCLID2)
    assert verdict.status == TOWER_UNDECIDED
    assert not verdict.vertex_complete


def test_flexible_stage_inside_rigid_successor_certifies():
    """A flexible stage is fine as long as the next stage pins it."""
    t = Tower([C4, complete_graph(4)])
    verdict = tower_rigidity(t, EUCLID2)
    assert verdict.status == TOWER_RIGID


def test_single_stage_tower_checks_the_stage_itself():
    assert tower_rigidity(Tower([complete_graph(4)]), EUCLID2).status == TOWER_RIGID
    assert tower_rigidity(Tower([C4]), EUCLID2).status == TOWER_FLEXIBLE


def test_undersized_stage_reports_its_index():
    t = Tower([SimpleGraph([0], []), complete_graph(3)])
    with pytest.raises(InputError, match="stage 1"):
        tower_rigidity(t, EUCLID2)


def _tight_tower(mode: str, sizes, seed: int) -> Tower:
    stages = []
    g = None
    for n in sizes:
        kept = g.edges if g is not None else ()
        g = grow_tight_graph(mode, n, seed=seed, start=g, protected=kept)
        stages.append(g)
    return Tower(stages)


def test_sequential_witness_for_tight_tower():
    t = _tight_tower("euclidean", (4, 6, 8), seed=11)
    witness = sequential_rigidity_2d(t, 2, seed=11)
    assert witness is not None
    assert len(witness) == 2
    for k, h in enumerate(witness):
        assert t.stages[k].is_subgraph_of(h)
        assert h.is_subgraph_of(t.stages[k + 1])
        assert is_rigid_generic(h, EUCLID2).rigid
    # A sequential certificate forces the union itself to be rigid.
    union = t.reference
    assert flex_report(union, random_placement(union, EUCLID2, 5), EUCLID2).flex_dim == 0


def test_sequential_witness_under_cubic_count():
    t = _tight_tower("qnorm", (4, 6, 8), seed=23)
    witness = sequential_rigidity_2d(t, 3, seed=23)
    assert witness is not None
    for h in witness:
        assert is_rigid_generic(h, CUBIC2).rigid


def test_sequential_rigidity_refuses_flexible_tower():
    assert sequential_rigidity_2d(Tower([C4, C4]), 2) is None


def test_sequential_rigidity_tests_declared_final_stage():
    t = Tower([complete_graph(3), K3_PENDANT], target=K3_PENDANT)
    assert sequential_rigidity_2d(t, 2) is None
    k4 = complete_graph(4)
    witness = sequential_rigidity_2d(Tower([complete_graph(3), k4], target=k4), 2)
    assert witness is not None and witness[-1] == k4


def test_sequential_witness_inside_successor():
    """Stage misses an edge restored later; the container lives in between."""
    t = Tower([C4, complete_graph(4), complete_graph(5)])
    witness = sequential_rigidity_2d(t, 2)
    assert witness is not None
    assert C4.is_subgraph_of(witness[0])
    assert is_rigid_generic(witness[0], EUCLID2).rigid


# ---- tight tower extraction ----------------------------------------------


def test_tight_tower_is_its_own_minimal_witness():
    t = _tight_tower("euclidean", (4, 6, 8), seed=31)
    verdict = laman_tower_decide(t, 2)
    assert verdict.status == LAMAN_TOWER_MINIMAL
    assert verdict.witness == t.stages


def test_rigid_tower_yields_nested_tight_witness():
    t = Tower([complete_graph(4), complete_graph(5), complete_graph(6)])
    verdict = laman_tower_decide(t, 2)
    assert verdict.status == LAMAN_TOWER_RIGID
    for k, w in enumerate(verdict.witness):
        assert set(w.vertices) == set(t.stages[k].vertices)
        assert is_sparse(w, LAMAN).tight
        if k:
            assert verdict.witness[k - 1].is_subgraph_of(w)


def test_flexible_union_not_certified():
    assert laman_tower_decide(Tower([C4]), 2).status == LAMAN_TOWER_NOT


def test_tight_tower_cubic_count():
    t = _tight_tower("qnorm", (4, 6), seed=37)
    verdict = laman_tower_decide(t, 3)
    assert verdict.status == LAMAN_TOWER_MINIMAL
    for w in verdict.witness:
        assert is_sparse(w, QNORM_2D).tight


def test_vertex_incomplete_witness_not_certified():
    t = Tower([complete_graph(4)], target=complete_graph(5))
    assert laman_tower_decide(t, 2).status == LAMAN_TOWER_NOT


# ---- exhaustive container search -----------------------------------------


def test_exhaustive_search_finds_smallest_container():
    found = exhaustive_rigid_container(complete_graph(4), complete_graph(3), EUCLID2)
    assert found == complete_graph(3)


def test_exhaustive_search_reports_absence():
    assert exhaustive_rigid_container(C4, DIAGONAL, EUCLID2) is None


def test_exhaustive_search_caps_vertex_count():
    with pytest.raises(InputError):
        exhaustive_rigid_container(complete_graph(13), complete_graph(3), EUCLID2)


def test_greedy_subsequence_on_nested_complete_graphs():
    t = Tower([complete_graph(4), complete_graph(5), complete_graph(6)])
    assert relatively_rigid_subsequence(t, EUCLID2) == (0, 1, 2)


def test_greedy_subsequence_skips_unpinned_stage():
    pendant = SimpleGraph([0, 4], [(0, 4)])
    t = Tower(
        [C4, graph_union(C4, pendant), graph_union(complete_graph(4), pendant)]
    )
    assert relatively_rigid_subsequence(t, EUCLID2) == (0, 2)


def test_greedy_subsequence_skips_stages_a_vertex_cannot_anchor():
    # One vertex is below the Euclidean anchor threshold of two, so every
    # later stage is skipped and the scan ends where it started.
    t = Tower([SimpleGraph([0], []), complete_graph(2), complete_graph(3)])
    assert relatively_rigid_subsequence(t, EUCLID2) == (0,)


def test_greedy_subsequence_stops_when_no_later_stage_passes():
    # A triangle pins the foot of a pendant bar, but nothing later pins the
    # bar's free end.
    hung = SimpleGraph(range(4), complete_graph(3).edges + ((2, 3),))
    longer = SimpleGraph(range(5), hung.edges + ((3, 4),))
    t = Tower([complete_graph(3), hung, longer])
    assert relatively_rigid_subsequence(t, EUCLID2) == (0, 1)


# ---- staged decisions against per-decision reference loops ---------------

# Reference copies of the planar tight-witness and container loops, written
# out per decision: with no target the reference is the graph_union fold of
# the stages, the union of the witnesses is gathered edge by edge, and the
# stage pairs are built here.


def _stage_union(stages):
    g = stages[0]
    for h in stages[1:]:
        g = graph_union(g, h)
    return g


def _laman_reference(t, q):
    witness = seeded_tight_witnesses(t.stages, LAMAN if q == 2 else QNORM_2D)
    if witness is None:
        return LAMAN_TOWER_NOT, None
    union = _stage_union(t.stages)
    ref = t.target if t.target is not None else union
    if union.vertex_set != ref.vertex_set:
        return LAMAN_TOWER_NOT, tuple(witness)
    covered = set()
    for w in witness:
        covered.update(w.edge_set)
    status = LAMAN_TOWER_MINIMAL if covered == ref.edge_set else LAMAN_TOWER_RIGID
    return status, tuple(witness)


def _sequential_reference(t, q, seed, confirm):
    pairs = list(zip(t.stages, t.stages[1:]))
    if t.depth == 1 or t.stages[-1] == t.target:
        pairs.append((t.stages[-1], t.stages[-1]))
    witness = []
    for small, large in pairs:
        container = rigid_container_2d(large, small, q)
        if container is None:
            norm = NormSpec(2, q)
            check = confirm(large, small, random_placement(t.stages[-1], norm, seed), norm)
            if check.relatively_rigid:
                raise InconsistencyError("relatively rigid but no container found")
            return None
        witness.append(container)
    return tuple(witness)


def _random_nested_tower(idx):
    """A seeded tower on a random graph g, with g, the final stage or
    nothing as its declared target.

    Half the towers grow nested tight stages, with a few extra edges on
    some, and g one move past the final stage.  The others take the stages
    of a complete or a random graph g by arrival times; a vertex or edge
    arriving at the depth is only in g.  The edges of a complete g arrive
    with their later endpoint, so its stages are rigid."""
    rng = random.Random(idx)
    q = (2, 3, 2.5)[idx % 3]
    mode = "euclidean" if q == 2 else "qnorm"
    depth = rng.randint(1, 4)
    if idx % 2:
        stages = []
        g = None
        for _ in range(depth + 1):
            size = (g.n_vertices if g else 2) + rng.randint(0, 2)
            kept = g.edges if g is not None else ()
            seed = rng.randrange(10**6)
            g = grow_tight_graph(mode, size, seed=seed, start=g, protected=kept)
            extra = [e for e in combinations(g.vertices, 2) if not g.has_edge(*e)]
            if extra and rng.random() < 0.3:
                g = SimpleGraph(g.vertices, g.edges + (rng.choice(extra),))
            stages.append(g)
        return Tower(stages[:-1], (None, stages[-2], g)[rng.randrange(3)]), q
    n = rng.randint(3, 9)
    complete = rng.random() < 0.4
    g = complete_graph(n) if complete else random_graph(n, rng.uniform(0.3, 0.9), idx)
    late = depth if rng.random() < 0.4 else depth - 1
    when = {v: rng.randint(0, late) for v in g.vertices}
    when[g.vertices[0]] = 0
    for e in g.edges:
        delay = 0 if complete else rng.randint(0, late)
        when[e] = max(when[e[0]], when[e[1]], delay)
    stages = [
        SimpleGraph(
            [v for v in g.vertices if when[v] <= k],
            [e for e in g.edges if when[e] <= k],
        )
        for k in range(depth)
    ]
    return Tower(stages, (None, stages[-1], g)[rng.randrange(3)]), q


def _laid_out(graphs):
    return None if graphs is None else [(h.vertices, h.edges) for h in graphs]


def test_laman_decision_matches_reference_loop():
    seen = set()
    for idx in range(300):
        t, q = _random_nested_tower(idx)
        verdict = laman_tower_decide(t, q)
        status, witness = _laman_reference(t, q)
        assert (verdict.status, _laid_out(verdict.witness)) == (
            status,
            _laid_out(witness),
        ), idx
        seen.add((status, witness is None, t.target is None, t.depth == 1))
    # every status, a NotCertified both with and without witnesses, and
    # declared targets and single stages among them
    assert {s for s, *_ in seen} == {
        LAMAN_TOWER_NOT,
        LAMAN_TOWER_RIGID,
        LAMAN_TOWER_MINIMAL,
    }
    assert {(s, none) for s, none, *_ in seen if s == LAMAN_TOWER_NOT} == {
        (LAMAN_TOWER_NOT, True),
        (LAMAN_TOWER_NOT, False),
    }
    assert {(target, single) for _, _, target, single in seen} == {
        (True, True), (True, False), (False, True), (False, False)
    }


def _shuffled_stage(g, rng):
    vs, es = list(g.vertices), list(g.edges)
    rng.shuffle(vs)
    rng.shuffle(es)
    return type(g)(vs, es)


def _reorders(stages):
    """Whether some stage lists two edges of its predecessor the other way."""
    for small, large in zip(stages, stages[1:]):
        pos = {e: i for i, e in enumerate(large.edges)}
        old = [pos[e] for e in small.edges]
        if old != sorted(old):
            return True
    return False


def _rejects_early(stages, witness):
    """Whether a stage before the last leaves an edge out of its witness."""
    return any(s.n_edges > w.n_edges for s, w in zip(stages[:-1], witness))


def test_laman_decision_on_shuffled_stages_matches_reference_loop():
    """The seeded towers above with every stage's vertex and edge order
    shuffled on its own."""
    seen = set()
    for idx in range(300):
        t, q = _random_nested_tower(idx)
        rng = random.Random(idx)
        stages = [_shuffled_stage(s, rng) for s in t.stages]
        t = Tower(stages, t.target)
        verdict = laman_tower_decide(t, q)
        status, witness = _laman_reference(t, q)
        assert (verdict.status, _laid_out(verdict.witness)) == (
            status,
            _laid_out(witness),
        ), idx
        seen.add((status, witness is None))
        if witness is not None:
            seen.add(("reordered", _reorders(stages)))
            seen.add(("rejected early", _rejects_early(stages, witness)))
            seen.add(("target", t.target is not None))
    assert seen >= {
        ("reordered", True),
        ("rejected early", True),
        ("target", True),
        (LAMAN_TOWER_NOT, True),
        (LAMAN_TOWER_NOT, False),
        (LAMAN_TOWER_RIGID, False),
        (LAMAN_TOWER_MINIMAL, False),
    }


def _growing_multigraph_tower(rng, k, depth):
    """Nested multigraph stages, each with its own shuffled edge order.

    Each new vertex is joined by k edges to earlier vertices, parallel
    copies allowed, which keeps a stage (k, k)-tight; some stages add a
    copy of an existing edge, and a rare vertex gets only k - 1 edges, so
    that stage and every later one fall short."""
    vs, es = [0], []
    stages = []
    for _ in range(depth):
        for _ in range(rng.randint(0, 2)):
            v = len(vs)
            degree = k - (rng.random() < 0.05)
            es += [(rng.choice(vs), v) for _ in range(degree)]
            vs.append(v)
        if es and rng.random() < 0.5:
            es.append(rng.choice(es))
        stages.append(MultiGraph(vs, rng.sample(es, len(es))))
    return stages


def test_multigraph_witnesses_match_reference_loop():
    from rigidkit.towers import _nested_witnesses

    seen = Counter()
    for idx in range(300):
        rng = random.Random(idx)
        k = (2, 3, 6)[idx % 3]
        count = SparsityCount(k, k)
        stages = _growing_multigraph_tower(rng, k, rng.randint(1, 4))
        _, witness = _nested_witnesses(stages, stages[-1], count)
        want = seeded_tight_witnesses(stages, count)
        assert _laid_out(witness) == _laid_out(want), idx
        seen["no witness"] += want is None
        if want is not None:
            seen["rejected early"] += _rejects_early(stages, want)
            for small, large in zip(stages, stages[1:]):
                added = Counter(large.edges) - Counter(small.edges)
                seen["parallel later"] += any(e in small.edges for e in added)
    assert min(seen[case] for case in ("no witness", "rejected early", "parallel later")) > 0


def test_laman_tower_inserts_each_edge_once(monkeypatch):
    g = zero_extension_graph(1200, 2, 3, 1)
    t = Tower([induced_subgraph(g, range(120 * k)) for k in range(1, 11)])
    inserts = []
    real = PebbleGame.insert

    def insert(game, u, w):
        inserts.append((u, w))
        return real(game, u, w)

    monkeypatch.setattr(PebbleGame, "insert", insert)
    verdict = laman_tower_decide(t, 2)
    assert verdict.status == LAMAN_TOWER_MINIMAL
    assert len(inserts) == g.n_edges == 2397


def test_sequential_decision_matches_reference_loop(monkeypatch):
    calls = {"new": [], "ref": []}
    real = towers._relative_at

    def recorder(log):
        def confirm(g, h, p, norm):
            calls[log].append((g.vertices, g.edges, h.vertices, h.edges, p))
            return real(g, h, p, norm)

        return confirm

    monkeypatch.setattr(towers, "_relative_at", recorder("new"))
    outcomes = set()
    for idx in range(240):
        t, q = _random_nested_tower(idx)
        got = want = None
        try:
            got = _laid_out(sequential_rigidity_2d(t, q, seed=idx))
        except InputError as err:
            got = str(err)
        try:
            want = _laid_out(_sequential_reference(t, q, idx, recorder("ref")))
        except InputError as err:
            want = str(err)
        assert got == want, idx
        outcomes.add("undersized" if isinstance(want, str) else want is None)
    assert outcomes == {"undersized", True, False}
    assert calls["new"] == calls["ref"]
    assert calls["new"]


# ---- containers against the unskipped pair loop --------------------------


def _container_case(idx):
    """Graph, anchor and exponent: anchors in a rigid graph grown by moves,
    with a few dependent edges added, or anchors spread over two rigid
    blocks joined by one link too few (q = 2 needs three links, q = 3 two)."""
    rng = random.Random(idx)
    q = (2, 3)[idx % 2]
    mode = "euclidean" if q == 2 else "qnorm"
    if idx % 4 < 2:
        g = grow_tight_graph(mode, rng.randint(6, 60), seed=idx)
        extra = [e for e in combinations(g.vertices, 2) if not g.has_edge(*e)]
        g = SimpleGraph(g.vertices, g.edges + tuple(rng.sample(extra, min(3, len(extra)))))
        anchors = rng.sample(g.vertices, rng.randint(4, min(10, g.n_vertices)))
    else:
        a = grow_tight_graph(mode, rng.randint(4, 20), seed=idx)
        b = grow_tight_graph(mode, rng.randint(4, 20), seed=idx + 1)
        shift = max(a.vertices) + 1
        b = SimpleGraph([v + shift for v in b.vertices], [(v + shift, w + shift) for v, w in b.edges])
        few = 2 if q == 2 else 1
        links = list(zip(rng.sample(a.vertices, few), rng.sample(b.vertices, few)))
        g = SimpleGraph(a.vertices + b.vertices, a.edges + b.edges + tuple(links))
        anchors = rng.sample(a.vertices, 2) + rng.sample(b.vertices, 2)
    h = induced_subgraph(g, anchors)
    if idx % 3 == 0 and h.edges:
        h = SimpleGraph(h.vertices, h.edges[1:])
    return g, h, q


def test_container_skip_keeps_the_unskipped_container():
    # Vertices and edges come out in the same order, and the negatives agree.
    outcomes = Counter()
    for idx in range(80):
        g, h, q = _container_case(idx)
        got = rigid_container_2d(g, h, q)
        want = unskipped_rigid_container_2d(g, h, q)
        assert _laid_out(None if got is None else [got]) == _laid_out(
            None if want is None else [want]
        ), idx
        outcomes[q, got is None] += 1
    assert set(outcomes) == {(2, True), (2, False), (3, True), (3, False)}


def test_sequential_containers_keep_the_unskipped_containers(monkeypatch):
    cases = [
        (_tight_tower(mode, (6, 20, 45, 80), seed), q)
        for seed in range(3)
        for mode, q in (("euclidean", 2), ("qnorm", 3))
    ]
    cases += [_random_nested_tower(idx) for idx in range(60)]

    def outcomes():
        out = []
        for t, q in cases:
            try:
                out.append(_laid_out(sequential_rigidity_2d(t, q, seed=1)))
            except InputError as err:
                out.append(str(err))
        return out

    got = outcomes()
    monkeypatch.setattr("rigidkit.towers.rigid_container_2d", unskipped_rigid_container_2d)
    assert got == outcomes()
    assert all(isinstance(w, list) for w in got[:6]) and None in got


@pytest.mark.parametrize("q", [2, 3])
def test_container_skips_pairs_an_earlier_closure_covers(monkeypatch, q):
    g = grow_tight_graph("euclidean" if q == 2 else "qnorm", 160, seed=q)
    h = induced_subgraph(g, random.Random(q).sample(g.vertices, 8))
    calls = []
    real = PebbleGame.blocker

    def blocker(game, u, w):
        calls.append((u, w))
        return real(game, u, w)

    monkeypatch.setattr(PebbleGame, "blocker", blocker)
    assert rigid_container_2d(g, h, q) is not None
    skipped = len(calls)
    unskipped_rigid_container_2d(g, h, q)
    # every pair but those on an edge of the thinned graph asks for a blocker
    assert 0 < skipped < len(calls) - skipped <= len(list(combinations(h.vertices, 2))) == 28


# ---- one kernel carried up a tower ---------------------------------------


def _nested_tower(g, rng, depth):
    """Stages of g: its vertices arrive in depth shuffled blocks, some with no
    edge yet, and each edge at or after the stage holding both its ends, so
    some stages add only edges between old vertices."""
    order = rng.sample(g.vertices, g.n_vertices)
    cuts = sorted(rng.sample(range(1, g.n_vertices), depth - 1)) + [g.n_vertices]
    arrive = {v: sum(i >= c for c in cuts) for i, v in enumerate(order)}
    due = {e: max(arrive[e[0]], arrive[e[1]]) + rng.choice((0, 0, 1, 2)) for e in g.edges}
    edges = rng.sample(g.edges, g.n_edges)
    return Tower(
        SimpleGraph(
            [v for v in order if arrive[v] <= k], [e for e in edges if due[e] <= k]
        )
        for k in range(depth)
    )


def _two_blocks(norm, seed):
    """A rigid block, two disjoint blocks, and the two joined by fewer bars
    than the rigid motions need: the last pair fails."""
    base = norm.d + 1 if norm.euclidean else 2 * norm.d
    a = zero_extension_graph(base + 3, norm.d, base, seed)
    b = SimpleGraph(
        [v + 100 for v in a.vertices], [(u + 100, v + 100) for u, v in a.edges]
    )
    apart = graph_union(a, b)
    links = [(i, 100 + (i + seed) % a.n_vertices) for i in range(2)]
    return Tower([a, apart, SimpleGraph(apart.vertices, apart.edges + tuple(links))])


def _sample_towers(qs):
    """(tower, norm) pairs over d in {2, 3} and the given q: prefixes of
    0-extension graphs (the first stage flexible when it is short of the
    base), nested stages of random and complete graphs with isolated
    vertices and edge-only stages, two blocks with a failing pair, and in
    3-space the banana towers."""
    out = []
    for d in (2, 3):
        for q in qs:
            norm = NormSpec(d, q)
            base = d + 1 if q == 2 else 2 * d
            for seed in range(2):
                rng = random.Random(100 * d + int(10 * q) + seed)
                full = zero_extension_graph(base + 10, d, base, seed)
                sizes = (base - 2 + seed, base + 2, base + 5, base + 10)
                found = [
                    Tower([induced_subgraph(full, range(m)) for m in sizes]),
                    _nested_tower(full, rng, 4),
                    _nested_tower(random_graph(12, 0.5, seed), rng, 4),
                    _nested_tower(complete_graph(base + 3), rng, 3),
                    _two_blocks(norm, seed),
                ]
                if d == 3:
                    found.append(Tower([banana_tower(k) for k in range(1, 4 + seed)]))
                out += [(t, norm) for t in found]
    return out


CARRY_TOWERS = _sample_towers((2, 3, 4)) + [
    # A first stage that leaves a large core, carried up the next two.
    (Tower([banana_tower(k) for k in (16, 17, 18)]), NormSpec(3, 2))
]
# _Carry runs at an integer q only; these towers rank each pair by the SVD
# cutoff at the same one placement.
HALF_TOWERS = _sample_towers((Fraction(5, 2),))


def _relative_pair(small, large, p, norm):
    """(nullity_graph, nullity_anchored) of small in large at p, by
    pinned_ranks' two peels."""
    free = np.array([v not in small.vertex_set for v in large.vertices])
    rank_g, rank_pinned = pinned_ranks(large, p, norm, free)
    nullity_a = norm.trivial_dim_at(small.n_vertices) + norm.d * (
        large.n_vertices - small.n_vertices
    ) - rank_pinned
    return norm.d * large.n_vertices - rank_g, nullity_a


@pytest.mark.parametrize("idx", range(len(CARRY_TOWERS)))
def test_carried_pairs_match_two_peel_ranks(idx):
    # Every pair (k, j), k <= j, stepped from stage k's carried kernel gives
    # the nullities the two-peel reference finds at the same placement.
    _check_carried_pairs(idx)


def test_carry_sweep_takes_both_routes(monkeypatch):
    # The sweep reaches stages both ways: carried from the stage before, and
    # afresh from no vertex when the flexes of the stage before outweigh
    # what the stage adds.
    routes = Counter()
    real = rigidkit.frameworks._Carry._reach

    def reach(carry, small, new, j):
        routes["afresh" if small.index < 0 and j else "carried"] += 1
        return real(carry, small, new, j)

    monkeypatch.setattr(rigidkit.frameworks._Carry, "_reach", reach)
    for idx in range(len(CARRY_TOWERS)):
        _check_carried_pairs(idx)
    assert routes["afresh"] > 0 and routes["carried"] > 0


def _check_carried_pairs(idx):
    t, norm = CARRY_TOWERS[idx]
    p = random_placement(t.stages[-1], norm, idx)
    carry = rigidkit.frameworks._Carry(t.stages, p, norm)
    at = [carry.first()]
    for j in range(1, t.depth):
        at.append(carry.step(at[-1], j)[1])
    for k in range(t.depth):
        for j in range(k, t.depth):
            small, large = t.stages[k], t.stages[j]
            pinned, stage = carry.step(at[k], j)
            got = towers._nullities(norm, small.n_vertices, large.n_vertices, stage.rank, pinned)
            assert got == _relative_pair(small, large, p, norm), (k, j)


@pytest.mark.parametrize("idx", range(len(CARRY_TOWERS)))
def test_carried_kernels_span_each_stages_kernel(idx):
    # Each stage's kernel basis, in the carry's vertex order, is annihilated
    # by the stage's exact matrix and has rank nullity mod PRIME.
    t, norm = CARRY_TOWERS[idx]
    p = random_placement(t.stages[-1], norm, idx)
    carry = rigidkit.frameworks._Carry(t.stages, p, norm)
    stage = carry.first()
    order = list(dict.fromkeys(v for s in t.stages for v in s.vertices))
    for j in range(t.depth):
        if j:
            stage = carry.step(stage, j)[1]
        n, d = stage.n, norm.d
        kern = stage.kernel(np.arange(n)).reshape(n * d, -1)
        assert kern.shape[1] == d * n - stage.rank
        g = SimpleGraph(order[:n], t.stages[j].edges)
        m = rigidkit.frameworks.rigidity_matrix_mod_p(g, p, norm)
        product = m.astype(object) @ kern.astype(object) % rigidkit.frameworks.PRIME
        assert not product.any()
        assert rigidkit.frameworks.rank_mod_p(kern) == kern.shape[1]


def test_carry_keeps_no_kernel_a_later_stage_cannot_read():
    # banana_tower(1..128): every stage is flexible, so every kernel is
    # built.  Each is freed once the next stage has read it (2.1 MB peak);
    # holding all of them took 6.7 MB.
    top = banana_tower(128)
    t = Tower([SimpleGraph(range(3 * k + 5), top.edges[: 9 * k + 9]) for k in range(1, 129)])
    tracemalloc.start()
    try:
        verdict = tower_rigidity(t, NormSpec(3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == TOWER_RIGID
    assert peak < 4 * 2**20


def _reference_tower(t, norm, seed):
    """tower_rigidity's status and prefix, each pair by the two-peel
    reference at one placement of the final stage.  The Flexible check
    reads the final nullity at that placement for an integer q; any other q
    keeps is_rigid_generic's retries at the same seed."""
    p = random_placement(t.stages[-1], norm, seed)
    prefix, failed = 1, False
    for k, j in towers._consecutive_pairs(t):
        graph, anchored = _relative_pair(t.stages[k], t.stages[j], p, norm)
        if graph != anchored:
            failed = True
            break
        prefix = j + 1
    if not failed and t.vertex_complete:
        return TOWER_RIGID, prefix
    final = t.stages[-1]
    if norm.q_is_integer:
        final_nullity = norm.d * final.n_vertices - pinned_ranks(
            final, p, norm, np.ones(final.n_vertices, dtype=bool)
        )[0]
        flexible = final_nullity > norm.trivial_dim_at(final.n_vertices)
    else:
        flexible = not is_rigid_generic(final, norm, seed=seed).rigid
    if failed and flexible:
        return TOWER_FLEXIBLE, prefix
    return TOWER_UNDECIDED, prefix


def _reference_subsequence(t, norm, seed):
    p = random_placement(t.stages[-1], norm, seed)
    chosen, k = [0], 0
    while k < t.depth - 1 and t.stages[k].n_vertices >= anchor_threshold(norm):
        j = next(
            (
                j
                for j in range(k + 1, t.depth)
                if len(set(_relative_pair(t.stages[k], t.stages[j], p, norm))) == 1
            ),
            None,
        )
        if j is None:
            break
        chosen.append(j)
        k = j
    return tuple(chosen)


def test_tower_decisions_match_the_two_peel_reference():
    for sample in (CARRY_TOWERS, HALF_TOWERS):
        statuses = set()
        for idx, (t, norm) in enumerate(sample):
            if t.stages[0].n_vertices < anchor_threshold(norm):
                with pytest.raises(InputError, match="stage 1"):
                    tower_rigidity(t, norm, seed=idx)
            else:
                v = tower_rigidity(t, norm, seed=idx)
                assert (v.status, v.relatively_rigid_prefix) == _reference_tower(t, norm, idx)
                statuses.add(v.status)
            got = relatively_rigid_subsequence(t, norm, seed=idx)
            assert got == _reference_subsequence(t, norm, idx)
        assert statuses == {TOWER_RIGID, TOWER_FLEXIBLE, TOWER_UNDECIDED}


def test_tower_places_once_and_reads_the_final_nullity(monkeypatch):
    # Every pair is judged at one placement of the final stage, at the
    # caller's seed.  At an integer q that is the only draw, and the
    # Flexible check reads the carried nullity instead of calling
    # is_rigid_generic; any other q runs is_rigid_generic on the final stage
    # at the same seed, whose draws are that placement and its retries.
    placed, generic = [], []
    real = rigidkit.frameworks.random_placement
    real_generic = rigidkit.frameworks.is_rigid_generic

    def placement(g, norm, seed):
        placed.append((g.vertices, seed))
        return real(g, norm, seed)

    def is_rigid(g, norm, seed=0):
        generic.append((g.vertices, seed))
        return real_generic(g, norm, seed=seed)

    monkeypatch.setattr(rigidkit.frameworks, "random_placement", placement)
    monkeypatch.setattr(rigidkit.frameworks, "is_rigid_generic", is_rigid)
    half = NormSpec(2, Fraction(5, 2))
    cases = [
        (Tower([C4, C4]), EUCLID2, TOWER_FLEXIBLE),
        (Tower([complete_graph(3), K3_PENDANT], target=K3_PENDANT), EUCLID2, TOWER_FLEXIBLE),
        (Tower([C4, C4, complete_graph(4)]), EUCLID2, TOWER_UNDECIDED),
        (Tower([banana_tower(k) for k in range(1, 5)]), NormSpec(3, 2), TOWER_RIGID),
        (Tower([C4, C4]), half, TOWER_FLEXIBLE),
        (Tower([C4, C4, complete_graph(4)]), half, TOWER_UNDECIDED),
        (Tower([C4, complete_graph(4), complete_graph(5)]), half, TOWER_RIGID),
    ]
    for t, norm, status in cases:
        final = t.stages[-1].vertices
        placed.clear()
        generic.clear()
        assert tower_rigidity(t, norm, seed=5).status == status
        checked = status != TOWER_RIGID and not norm.q_is_integer
        assert generic == ([(final, 5)] if checked else [])
        assert placed == [(final, 5)] + [(final, 5 + i) for i in range(len(placed) - 1)]
        assert (len(placed) > 1) == checked
        placed.clear()
        relatively_rigid_subsequence(t, norm, seed=5)
        assert placed == [(final, 5)]


def test_missing_container_is_confirmed_at_the_final_placement(monkeypatch):
    # A pair whose container is missing is confirmed at the final stage's
    # placement, drawn once at the caller's seed: here it is relatively
    # rigid, so the missing container is an inconsistency.
    t = _tight_tower("euclidean", (4, 6, 8), seed=11)
    placed = []
    real = rigidkit.frameworks.random_placement

    def placement(g, norm, seed):
        placed.append((g.vertices, seed))
        return real(g, norm, seed)

    def container(g, h, q):
        return None if h == t.stages[0] else rigid_container_2d(g, h, q)

    monkeypatch.setattr(rigidkit.frameworks, "random_placement", placement)
    monkeypatch.setattr(towers, "rigid_container_2d", container)
    with pytest.raises(InconsistencyError, match="stage 1"):
        sequential_rigidity_2d(t, 2, seed=11)
    assert placed == [(t.stages[-1].vertices, 11)]


def test_plane_flexible_check_agrees_with_the_count(monkeypatch):
    # In the plane the carried Flexible check is cross-checked against the
    # tight-spanning count: a final rank that falls short at the placement
    # raises instead of reading Flexible.
    t = Tower([C4, C4, complete_graph(4)])
    assert tower_rigidity(t, EUCLID2).status == TOWER_UNDECIDED
    real = rigidkit.frameworks._Carry.step

    def short_at_the_top(carry, small, j):
        pinned, stage = real(carry, small, j)
        return pinned, stage._replace(rank=stage.rank - 1) if j == t.depth - 1 else stage

    monkeypatch.setattr(rigidkit.frameworks._Carry, "step", short_at_the_top)
    with pytest.raises(InconsistencyError, match="combinatorial verdict True"):
        tower_rigidity(t, EUCLID2)


def test_subsequence_lets_other_input_errors_through(monkeypatch):
    # A stage too small to anchor ends the scan; any other InputError from a
    # pair's verdict is the caller's to see.
    t = Tower([complete_graph(4), complete_graph(5), complete_graph(6)])
    norm = NormSpec(2, Fraction(5, 2))
    assert relatively_rigid_subsequence(t, norm) == (0, 1, 2)

    def refuse(*args, **kwargs):
        raise InputError("placement refused")

    monkeypatch.setattr(towers, "_relative_at", refuse)
    with pytest.raises(InputError, match="placement refused"):
        relatively_rigid_subsequence(t, norm)
