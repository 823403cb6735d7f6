"""The four benchmark workloads.

`build(name, seed)` makes the seeded inputs and returns a Workload: library
operations, each with a check of its result, and CLI invocations, each with
a check of its output.  Every check compares against a property the input
has by construction or against a computation made in gen.py; none compares
against stored output.  Operations call rigidkit through module attributes
at call time, so a tracer that patches those attributes sees every call.
"""

import json

import numpy as np

# moves is called only as code under test (find_chain); no input is built
# with it, nor with the test helpers.
from rigidkit import bodybar, catalog, frameworks, graphs, moves, sparsity, towers

import gen
from gen import CheckError, expect

class Op:
    """One library call; `entry` names the public function it exercises."""

    def __init__(self, entry, label, fn, check):
        self.entry, self.label, self.fn, self.check = entry, label, fn, check


class CliOp:
    """One `python -m rigidkit` invocation; `check` gets its stdout."""

    def __init__(self, argv, check):
        self.argv, self.check = argv, check


class Workload:
    def __init__(self, name):
        self.name = name
        self.ops = []
        self.cli = []
        self.files = {}  # file name -> JSON document the CLI leg reads

    def op(self, entry, label, fn, check):
        self.ops.append(Op(entry, label, fn, check))

    def warm_up(self):
        """Call each entry point once, on its first (smallest) input."""
        seen = set()
        for op in self.ops:
            if op.entry not in seen:
                seen.add(op.entry)
                op.fn()


def simple(graph):
    return graphs.SimpleGraph(graph[0], graph[1])


def graph_json(graph):
    return {"vertices": list(graph[0]), "edges": [list(e) for e in graph[1]]}


def edge_set(g):
    return {gen.pair(a, b) for a, b in g.edges}


def contains(big, small):
    """Vertex and edge containment of rigidkit graphs, computed here."""
    return set(small.vertices) <= set(big.vertices) and edge_set(small) <= edge_set(big)


def once(compute):
    """Memoize a check's reference computation across passes."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def cli_json(check):
    return lambda out: check(json.loads(out))


# ---- generic ----------------------------------------------------------------

# Largest sizes keep the share of uniform placements whose rank the float
# cutoff misreads under 4 % (see the README), so that all five placements
# of an is_rigid_generic call practically never miss.
GENERIC_LADDER = {
    (2, 2): (20, 40, 60),
    (2, 3): (15, 25, 30),
    (3, 2): (15, 25, 35),
    (3, 3): (10, 14, 18),
}

# (family, parameters, dimension) with stock placements
STOCK = (
    ("strip", {"cells": 8}, 2),
    ("whirlpool", {"layers": 3}, 2),
    ("tetra_refined", {"levels": 2}, 3),
    ("octa_pointed", {"levels": 2}, 3),
    ("diamond", {"levels": 2}, 3),
)


def _rank_check(d, q, n, flex_dim):
    want_rank = d * n - gen.trivial_dim(d, q) - flex_dim

    def check_report(rep):
        expect(rep.rank == want_rank, f"rank {rep.rank}, expected {want_rank}")
        expect(rep.flex_dim == flex_dim, f"flex_dim {rep.flex_dim}, expected {flex_dim}")

    return check_report


def _generic(w, seed):
    for (d, q), ladder in GENERIC_LADDER.items():
        norm = frameworks.NormSpec(d, q)
        for n in ladder:
            rng = gen.rng_for(seed, f"generic-{d}-{q}-{n}")
            tight = gen.extension_graph(rng, d, q, n, one_ext=(d == 2))
            cut = rng.choice(tight[1])
            minus = (tight[0], [e for e in tight[1] if e != cut])
            plus = (tight[0], tight[1] + [gen.non_edge(rng, tight)])
            rigid_rank = d * n - gen.trivial_dim(d, q)
            placement = frameworks.Placement(d, gen.conditioned_points(rng, tight, q, d, rigid_rank))
            for kind, graph, flex in (("tight", tight, 0), ("minus", minus, 1), ("plus", plus, 0)):
                g = simple(graph)
                check = _rank_check(d, q, n, flex)
                lib_seed = rng.randrange(10**6)

                def generic_check(v, check=check, flex=flex):
                    expect(v.rigid == (flex == 0), f"rigid is {v.rigid}")
                    check(v.report)

                label = f"d{d}q{q}-n{n}-{kind}"
                w.op(
                    "is_rigid_generic",
                    label,
                    lambda g=g, norm=norm, s=lib_seed: frameworks.is_rigid_generic(g, norm, seed=s),
                    generic_check,
                )
                w.op(
                    "flex_report",
                    label,
                    lambda g=g, p=placement, norm=norm: frameworks.flex_report(g, p, norm),
                    check,
                )
    for family, params, dim in STOCK:
        fam = catalog.generate(family, **params)
        g, p = fam.graph, fam.placement
        for q in (2, 3):
            norm = frameworks.NormSpec(dim, q)
            own = once(
                lambda g=g, p=p, q=q: gen.rank_with_gap(
                    gen.rigidity_matrix(g.vertices, g.edges, p.coords, q)
                )
            )

            def stock_check(rep, own=own, cols=dim * g.n_vertices):
                expect(own() is not None, "stock placement has no clear rank gap")
                expect(rep.rank == own(), f"rank {rep.rank}, own computation {own()}")
                expect(rep.nullity == cols - rep.rank, "rank and nullity do not add up")

            w.op(
                "flex_report",
                f"stock-{family}-q{q}",
                lambda g=g, p=p, norm=norm: frameworks.flex_report(g, p, norm),
                stock_check,
            )

    rng = gen.rng_for(seed, "generic-cli")
    n = 40
    fw = gen.extension_graph(rng, 2, 3, n, one_ext=True)
    w.files["framework.json"] = dict(
        graph_json(fw),
        placement={str(v): xy for v, xy in gen.conditioned_points(rng, fw, 3, 2, 2 * n - 2).items()},
        norm={"d": 2, "q": 3},
    )

    def analyze_check(out, rank, rigid):
        expect(out["rank"] == rank, f"CLI rank {out['rank']}, expected {rank}")
        expect(out["rigid"] is rigid, f"CLI rigid {out['rigid']}")

    w.cli.append(CliOp(["analyze", "framework.json"], cli_json(lambda o: analyze_check(o, 2 * n - 2, True))))
    n3 = 30
    g3 = gen.extension_graph(rng, 3, 2, n3)
    w.files["graph3d.json"] = graph_json(g3)
    w.cli.append(
        CliOp(
            ["analyze", "--generic", "--norm", "d=3,q=2", "--seed", str(rng.randrange(1000)), "graph3d.json"],
            cli_json(lambda o: analyze_check(o, 3 * n3 - 6, True)),
        )
    )
    stages = 3
    banana = gen.banana_tower_graph(stages)

    def catalog_check(o):
        got = {gen.pair(a, b) for a, b in o["edges"]}
        expect(sorted(o["vertices"]) == banana[0], "catalog vertices differ")
        expect(got == set(banana[1]), "catalog banana tower differs from its construction")

    argv = ["catalog", "banana_tower", "--params", f"stages={stages}", "--placement", "none"]
    w.cli.append(CliOp(argv, cli_json(catalog_check)))
    cut = rng.choice(fw[1])
    loose = (fw[0], [e for e in fw[1] if e != cut])
    w.files["flexible.json"] = dict(w.files["framework.json"], edges=[list(e) for e in loose[1]])

    def render_check(out):
        expect(out.startswith("<svg") and out.rstrip().endswith("</svg>"), "not an SVG document")
        expect(out.count("<line") >= len(loose[1]), "fewer lines than bars")

    w.cli.append(CliOp(["render", "--flex", "0", "flexible.json"], render_check))


# ---- relative-towers --------------------------------------------------------

BANANA_DEPTHS = (2, 3, 4)
# (d, q, vertex counts of the stages) for rigid 0-extension prefix towers
PREFIX_TOWERS = (
    (2, 2, (6, 10, 14, 18)),
    (2, 3, (6, 10, 14, 18)),
    (3, 2, (6, 9, 12, 15)),
    (3, 3, (6, 9, 12, 15)),
)


def _prefix(graph, m):
    return list(range(m)), [e for e in graph[1] if e[1] < m]


def _relabel(graph, perm):
    return [perm[v] for v in graph[0]], [gen.pair(perm[a], perm[b]) for a, b in graph[1]]


def _tower_ops(w, label, t, norm, rng, status, prefix, subsequence, stage_check=None):
    def tower_check(v):
        if stage_check is not None:
            stage_check()
        expect(v.status == status, f"status {v.status}, expected {status}")
        expect(v.relatively_rigid_prefix == prefix, f"prefix {v.relatively_rigid_prefix}, expected {prefix}")
        expect(v.stage_count == t.depth, "stage count differs from the input")

    def subsequence_check(s):
        expect(tuple(s) == subsequence, f"subsequence {s}, expected {subsequence}")

    s1, s2 = rng.randrange(10**6), rng.randrange(10**6)
    w.op("tower_rigidity", label, lambda: towers.tower_rigidity(t, norm, seed=s1), tower_check)
    w.op(
        "relatively_rigid_subsequence",
        label,
        lambda: towers.relatively_rigid_subsequence(t, norm, seed=s2),
        subsequence_check,
    )


def _two_blocks(rng, d, q, size, links):
    """Two disjoint rigid blocks, and the same joined by `links` edges, fewer
    than the trivial dimension asks for, so the blocks still move apart."""
    a = gen.extension_graph(rng, d, q, size)
    b = gen.relabel_shift(gen.extension_graph(rng, d, q, size), size)
    apart = (a[0] + b[0], a[1] + b[1])
    used, joins = set(), []
    while len(joins) < links:
        u, v = rng.randrange(size), size + rng.randrange(size)
        if u not in used and v not in used:
            used.update((u, v))
            joins.append((u, v))
    return a, apart, (apart[0], apart[1] + joins)


def _relative_towers(w, seed):
    norm3 = frameworks.NormSpec(3, 2)
    rng = gen.rng_for(seed, "relative-bananas")
    for depth in BANANA_DEPTHS:
        size = 3 * depth + 5
        perm = dict(enumerate(rng.sample(range(size), size)))
        stages = [_relabel(gen.banana_tower_graph(k), perm) for k in range(1, depth + 1)]

        def no_rigid_stage(stages=stages, check_rng=gen.rng_for(seed, f"banana-check-{depth}")):
            for s in stages:
                pts = gen.random_points(check_rng, s[0], 3)
                rank = gen.rank_with_gap(gen.rigidity_matrix(s[0], s[1], pts, 2))
                expect(rank is not None and rank < 3 * len(s[0]) - 6, "a banana stage came out rigid")

        t = graphs.Tower([simple(s) for s in stages])
        _tower_ops(
            w, f"banana-{depth}", t, norm3, rng, "RigidCertified", depth, tuple(range(depth)), once(no_rigid_stage)
        )
    for d, q, sizes in PREFIX_TOWERS:
        rng = gen.rng_for(seed, f"relative-prefix-{d}-{q}")
        full = gen.extension_graph(rng, d, q, sizes[-1])
        t = graphs.Tower([simple(_prefix(full, m)) for m in sizes])
        depth = len(sizes)
        _tower_ops(
            w, f"prefix-d{d}q{q}", t, frameworks.NormSpec(d, q), rng, "RigidCertified", depth, tuple(range(depth))
        )
    rng = gen.rng_for(seed, "relative-flexible")
    a, apart, joined = _two_blocks(rng, 3, 2, 9, 3)
    t = graphs.Tower([simple(a), simple(apart), simple(joined)])
    _tower_ops(w, "flexible-final", t, norm3, rng, "FlexibleCertified", 2, (0, 1))

    g, h = simple(joined), simple(apart)
    k_h = gen.complete_edges(apart[0])

    def witness_check(v):
        expect(not v.relatively_rigid, "flexibly joined blocks came out relatively rigid")
        expect(v.witness_flex is not None, "no witness flex")
        u = [x for vtx in joined[0] for x in v.witness_flex[vtx]]
        pts = v.placement.coords
        r_g = gen.rigidity_matrix(joined[0], joined[1], pts, 2)
        r_h = gen.rigidity_matrix(apart[0], k_h, pts, 2)
        size = np.linalg.norm(u)
        expect(np.linalg.norm(r_g @ u) <= 1e-9 * np.linalg.norm(r_g) * size, "witness flex is not in the kernel")
        expect(np.linalg.norm(r_h @ u) > 1e-6 * np.linalg.norm(r_h) * size, "witness flex moves the anchor trivially")

    w.op(
        "relative_rigidity",
        "two-blocks",
        lambda s=rng.randrange(10**6): towers.relative_rigidity(g, h, norm3, seed=s),
        witness_check,
    )

    depth = 3
    rng = gen.rng_for(seed, "relative-cli")
    full = gen.extension_graph(rng, 2, 3, 14)
    _, two, linked = _two_blocks(rng, 3, 2, 7, 2)
    cli_towers = (
        ("bananas.json", [gen.banana_tower_graph(k) for k in range(1, depth + 1)], "d=3,q=2", "RigidCertified", depth),
        ("prefix.json", [_prefix(full, m) for m in (6, 10, 14)], "d=2,q=3", "RigidCertified", 3),
        ("flexible.json", [two, linked], "d=3,q=2", "FlexibleCertified", 1),
    )
    for name, stages, norm, status, prefix in cli_towers:
        w.files[name] = {"stages": [graph_json(s) for s in stages]}

        def cli_check(o, status=status, prefix=prefix):
            expect(o["status"] == status, f"CLI status {o['status']}, expected {status}")
            expect(o["relativelyRigidPrefix"] == prefix, f"CLI prefix {o['relativelyRigidPrefix']}, expected {prefix}")

        w.cli.append(CliOp(["tower", "--mode", "relative", "--norm", norm, name], cli_json(cli_check)))


# ---- combinatorial ----------------------------------------------------------

SPARSE_SIZES = (200, 400, 800)


def _tight_check(rep):
    expect(rep.sparse and rep.witness is None, "independent graph reported dependent")
    expect(rep.tight, "tight graph reported not tight")


def _witness_check(graph, k, l):
    def check(rep):
        expect(not rep.sparse and rep.witness is not None, "overbraced graph reported sparse")
        wv = list(rep.witness.vertices)
        tally = gen.edge_tally(graph[1], wv)
        expect(tally > k * len(wv) - l, f"witness on {len(wv)} vertices spans only {tally} edges")

    return check


def _combinatorial(w, seed):
    for q in (2, 3):
        k, l = gen.tight_count(q)
        count = sparsity.SparsityCount(k, l)
        for n in SPARSE_SIZES:
            rng = gen.rng_for(seed, f"sparse-{q}-{n}")
            tight = gen.extension_graph(rng, 2, q, n, one_ext=True)
            over = (tight[0], tight[1] + [gen.non_edge(rng, tight)])
            g_t, g_o = simple(tight), simple(over)
            w.op("is_sparse", f"({k},{l})-n{n}-tight", lambda g=g_t, c=count: sparsity.is_sparse(g, c), _tight_check)
            w.op(
                "is_sparse",
                f"({k},{l})-n{n}-over",
                lambda g=g_o, c=count: sparsity.is_sparse(g, c),
                _witness_check(over, k, l),
            )

        rng = gen.rng_for(seed, f"augment-{q}")
        n = 24
        tight = gen.extension_graph(rng, 2, q, n, one_ext=True)
        drop = set(rng.sample(tight[1], 4))
        sparse_in = simple((tight[0], [e for e in tight[1] if e not in drop]))
        check_rng = gen.rng_for(seed, f"augment-check-{q}")

        def augment_check(g, sparse_in=sparse_in, check_rng=check_rng, q=q, k=k, l=l, n=n):
            expect(contains(g, sparse_in), "augmented graph lost input edges")
            expect(g.n_edges == k * n - l, f"augmented graph has {g.n_edges} edges")
            try:  # independent edges reach full row rank at some placement
                gen.conditioned_points(check_rng, (g.vertices, g.edges), q, 2, g.n_edges, floor=1e-9)
            except RuntimeError:
                raise CheckError("augmented edges are dependent by the own rank") from None

        w.op(
            "augment_to_tight",
            f"({k},{l})-n{n}",
            lambda g=sparse_in, c=count: sparsity.augment_to_tight(g, c),
            augment_check,
        )

        rng = gen.rng_for(seed, f"container-{q}")
        big = gen.extension_graph(rng, 2, q, 160, one_ext=True)
        h_vs = rng.sample(big[0], 8)
        g_big = simple(big)
        h = graphs.induced_subgraph(g_big, h_vs)

        def container_check(c, g=g_big, h=h):
            expect(c is not None, "rigid graph has no container for its subgraph")
            expect(contains(c, h) and contains(g, c), "container is not between h and g")

        w.op(
            "rigid_container_2d",
            f"q{q}-positive",
            lambda g=g_big, h=h, q=q: towers.rigid_container_2d(g, h, q),
            container_check,
        )
        a = gen.extension_graph(rng, 2, q, 60, one_ext=True)
        b = gen.relabel_shift(gen.extension_graph(rng, 2, q, 60, one_ext=True), 60)
        links = list(zip(rng.sample(a[0], l - 1), rng.sample(b[0], l - 1)))
        loose = simple((a[0] + b[0], a[1] + b[1] + links))
        h2 = graphs.induced_subgraph(loose, rng.sample(a[0], 3) + rng.sample(b[0], 3))
        w.op(
            "rigid_container_2d",
            f"q{q}-negative",
            lambda g=loose, h=h2, q=q: towers.rigid_container_2d(g, h, q),
            lambda c: expect(c is None, "container found across a flexible joint"),
        )

    for mode, q in (("euclidean", 2), ("qnorm", 3)):
        k, l = gen.tight_count(q)
        rng = gen.rng_for(seed, f"chain-{mode}")
        start = (list(range(gen.base_size(2, q))), gen.complete_edges(range(gen.base_size(2, q))))
        target = gen.extension_graph(rng, 2, q, 48, one_ext=True, start=start, keep=start[1])
        g_from, g_to = simple(start), simple(target)

        def chain_check(chain, g_from=g_from, g_to=g_to, k=k, l=l):
            expect(chain.start == g_from and chain.final == g_to, "chain does not join the given graphs")
            for s in chain.stages:
                expect(s.n_edges == k * s.n_vertices - l, "a chain stage misses the tight count")

        w.op("find_chain", mode, lambda a=g_from, b=g_to, m=mode: moves.find_chain(a, b, m), chain_check)

    for q in (2, 3):
        rng = gen.rng_for(seed, f"laman-tower-{q}")
        sizes = (8, 16, 24, 32)
        full = gen.extension_graph(rng, 2, q, sizes[-1])
        stages = [_prefix(full, m) for m in sizes]
        minimal = graphs.Tower([simple(s) for s in stages])
        extra = gen.non_edge(rng, (stages[1][0], stages[1][1]))
        braced = graphs.Tower([simple(stages[0])] + [simple((s[0], s[1] + [extra])) for s in stages[1:]])
        for label, t, status in (("minimal", minimal, "MinimallyRigid"), ("braced", braced, "Rigid")):

            def laman_check(v, t=t, status=status):
                expect(v.status == status, f"status {v.status}, expected {status}")
                expect(len(v.witness) == t.depth, "witness length differs from the depth")
                for st, wit in zip(t.stages, v.witness):
                    spanning = contains(st, wit) and set(wit.vertices) == set(st.vertices)
                    expect(spanning, "witness is not spanning in its stage")

            w.op("laman_tower_decide", f"q{q}-{label}", lambda t=t, q=q: towers.laman_tower_decide(t, q), laman_check)

        def sequential_check(hs, t=minimal):
            expect(hs is not None and len(hs) == t.depth - 1, "no sequential certificate for a rigid tower")
            for small, h, large in zip(t.stages, hs, t.stages[1:]):
                expect(contains(h, small) and contains(large, h), "container is not between consecutive stages")

        w.op(
            "sequential_rigidity_2d",
            f"q{q}",
            lambda t=minimal, q=q: towers.sequential_rigidity_2d(t, q),
            sequential_check,
        )

    rng = gen.rng_for(seed, "combinatorial-cli")
    n = 800
    tight = gen.extension_graph(rng, 2, 2, n, one_ext=True)
    over = (tight[0], tight[1] + [gen.non_edge(rng, tight)])
    w.files["overbraced.json"] = graph_json(over)

    def sparsity_cli(o):
        expect(o["sparse"] is False and o["witness"] is not None, "CLI missed the overbraced graph")
        wv = o["witness"]["vertices"]
        expect(gen.edge_tally(over[1], wv) > 2 * len(wv) - 3, "CLI witness does not violate the count")

    w.cli.append(CliOp(["sparsity", "--count", "2,3", "overbraced.json"], cli_json(sparsity_cli)))
    start = ([0, 1, 2], gen.complete_edges(range(3)))
    target = gen.extension_graph(rng, 2, 2, 48, one_ext=True, start=start, keep=start[1])
    w.files["chain_from.json"] = graph_json(start)
    w.files["chain_to.json"] = graph_json(target)

    def chain_cli(o):
        expect(o["verified"] is True, "CLI chain not verified")
        expect(o["start"]["vertices"] == start[0], "CLI chain starts elsewhere")

    argv = ["chain", "--mode", "euclidean", "--from", "chain_from.json", "--to", "chain_to.json"]
    w.cli.append(CliOp(argv, cli_json(chain_cli)))
    full = gen.extension_graph(rng, 2, 2, 32)
    w.files["laman_tower.json"] = {"stages": [graph_json(_prefix(full, m)) for m in (8, 16, 24, 32)]}

    def laman_cli(o):
        expect(o["status"] == "MinimallyRigid", f"CLI status {o['status']}")

    def sequential_cli(o):
        expect(o["status"] == "SequentiallyRigid" and len(o["witness"]) == 3, f"CLI status {o['status']}")

    for mode, check in (("laman", laman_cli), ("sequential", sequential_cli)):
        w.cli.append(CliOp(["tower", "--mode", mode, "--norm", "d=2,q=2", "laman_tower.json"], cli_json(check)))


# ---- multibody --------------------------------------------------------------

# (d, q, body counts); k = d(d+1)/2 in the Euclidean case, d otherwise
MULTIBODY_SIZES = ((2, 2, (4, 12)), (2, 3, (4, 12)), (3, 2, (3, 6)), (3, 3, (3, 10)))
SPECIAL_BODIES = ((2, (4, 6)), (3, (4, 6)))


def _structure(d, q, node_pairs, n_nodes, stage_nodes=None, stage_pairs=None):
    """Multi-body structure over the bodies and bars of the full node set,
    restricted to the first stage_nodes bodies and the listed bars."""
    vertices, _, bodies, bars = gen.multibody(d, q, node_pairs, n_nodes)
    keep = range(n_nodes if stage_nodes is None else stage_nodes)
    chosen = bars if stage_pairs is None else [bars[i] for i in stage_pairs]
    bodies = [bodies[i] for i in keep]
    vs = [v for b in bodies for v in b]
    edges = [e for b in bodies for e in gen.complete_edges(b)] + chosen
    return (vs, edges), bodies, chosen


def _multibody(w, seed):
    for d, q, sizes in MULTIBODY_SIZES:
        norm = frameworks.NormSpec(d, q)
        k = gen.trivial_dim(d, q)
        for n_nodes in sizes:
            rng = gen.rng_for(seed, f"multibody-{d}-{q}-{n_nodes}")
            pairs = gen.tree_union(rng, n_nodes, k)
            vertices, _, bodies, bars = gen.multibody(d, q, pairs, n_nodes)
            inner = [e for b in bodies for e in gen.complete_edges(b)]
            extra = gen.spare_bar(rng, bodies, bars)
            cut = rng.randrange(len(bars))
            variants = (
                ("tight", bars, True),
                ("minus", bars[:cut] + bars[cut + 1:], False),
                ("plus", bars + [extra], True),
            )
            for kind, bs, rigid in variants:
                g = graphs.SimpleGraph(vertices, inner + bs)
                m = bodybar.MultiBodyGraph(g, bodies, bs)

                def validate_check(mb, nb=len(bodies), nbar=len(bs)):
                    expect(mb.n_bodies == nb and len(mb.inter_body_edges) == nbar, "bodies or bars miscounted")

                def tay_check(v, rigid=rigid):
                    expect(v.rigid == rigid, f"Tay verdict {v.rigid}, expected {rigid}")

                label = f"d{d}q{q}-b{n_nodes}-{kind}"
                w.op(
                    "validate_multibody",
                    label,
                    lambda g=g, b=bodies, norm=norm: bodybar.validate_multibody(g, b, norm),
                    validate_check,
                )
                s = rng.randrange(10**6)
                w.op("tay_decide", label, lambda m=m, norm=norm, s=s: bodybar.tay_decide(m, norm, seed=s), tay_check)

    for d, counts in SPECIAL_BODIES:
        norm = frameworks.NormSpec(d, 3)
        for n_nodes in counts:
            rng = gen.rng_for(seed, f"special-{d}-{n_nodes}")
            pairs = gen.tree_union(rng, n_nodes, d)
            vertices, edges, bodies, bars = gen.multibody(d, 3, pairs, n_nodes)
            m = bodybar.MultiBodyGraph(graphs.SimpleGraph(vertices, edges), bodies, bars)
            s = rng.randrange(10**6)

            def special_check(res, d=d):
                expect(res.report.nullity == d, f"special placement nullity {res.report.nullity}, expected {d}")
                g = res.model.underlying
                rank = gen.rank_with_gap(gen.rigidity_matrix(g.vertices, g.edges, res.placement.coords, 3))
                expect(rank == d * g.n_vertices - d, "own rank at the special placement is not d*n - d")

            w.op(
                "special_placement",
                f"d{d}-b{n_nodes}",
                lambda m=m, norm=norm, s=s: bodybar.special_placement(m, norm, seed=s),
                special_check,
            )

    for d, q in ((2, 3), (3, 2)):
        norm = frameworks.NormSpec(d, q)
        k = gen.trivial_dim(d, q)
        rng = gen.rng_for(seed, f"multibody-container-{d}-{q}")
        n_nodes = 8
        pairs = gen.tree_union(rng, n_nodes, k)
        full, bodies, bars = _structure(d, q, pairs, n_nodes)
        g = bodybar.MultiBodyGraph(simple(full), bodies, bars)
        ends = [bodies[0], bodies[-1]]
        h_vs = ends[0] + ends[1]
        h = bodybar.MultiBodyGraph(
            graphs.SimpleGraph(h_vs, [e for b in ends for e in gen.complete_edges(b)]), ends, []
        )

        def container_check(c, g=g, h=h):
            expect(c is not None, "rigid structure has no container")
            expect(contains(c.underlying, h.underlying), "container misses the part")
            expect(contains(g.underlying, c.underlying), "container is not inside the host")

        w.op(
            "rigid_container_multibody",
            f"d{d}q{q}",
            lambda g=g, h=h, norm=norm: bodybar.rigid_container_multibody(g, h, norm),
            container_check,
        )

        def stage(nodes, pair_ids):
            graph, bs, chosen = _structure(d, q, pairs, n_nodes, nodes, pair_ids)
            return bodybar.MultiBodyGraph(simple(graph), bs, chosen)

        upto = lambda nodes: [i for i, (a, b) in enumerate(pairs) if b < nodes]  # noqa: E731
        tight_tower = bodybar.MultiBodyTower([stage(m, upto(m)) for m in (3, 5, 8)])
        # The first stage holds back one bar, so it has no tight spanning
        # subgraph; both stages carry the same bodies, so the container of
        # the pair reaches every body.
        fallback = bodybar.MultiBodyTower([stage(5, upto(5)[1:]), stage(5, upto(5))])
        cases = (
            ("tight", tight_tower, "EssentiallyMinimallyRigid", "tight_witness"),
            ("fallback", fallback, "Rigid", "container_witness"),
        )
        for label, t, status, route in cases:

            def tower_check(v, status=status, route=route):
                expect(v.status == status, f"status {v.status}, expected {status}")
                expect(getattr(v, route) is not None, f"decision did not take the {route} route")

            s = rng.randrange(10**6)
            w.op(
                "bodybar_tower_decide",
                f"d{d}q{q}-{label}",
                lambda t=t, norm=norm, s=s: bodybar.bodybar_tower_decide(t, norm, seed=s),
                tower_check,
            )

    rng = gen.rng_for(seed, "multibody-cli")
    for d, q, n_nodes, drop in ((3, 2, 6, 0), (2, 3, 8, 0), (3, 3, 5, 1)):
        pairs = gen.tree_union(rng, n_nodes, gen.trivial_dim(d, q))
        full, bodies, bars = _structure(d, q, pairs, n_nodes, n_nodes, range(drop, len(pairs)))
        name = f"multibody-d{d}q{q}.json"
        w.files[name] = {"graph": graph_json(full), "bodies": bodies, "interbody_edges": [list(e) for e in bars]}

        def bodybar_cli(o, rigid=(drop == 0), nb=len(bodies), nbar=len(bars)):
            expect(o["rigid"] is rigid, f"CLI Tay verdict {o['rigid']}, expected {rigid}")
            expect(o["bodies"] == nb and o["bars"] == nbar, "CLI miscounts bodies or bars")

        w.cli.append(CliOp(["bodybar", "--norm", f"d={d},q={q}", name], cli_json(bodybar_cli)))


_BUILDERS = {
    "generic": _generic,
    "relative-towers": _relative_towers,
    "combinatorial": _combinatorial,
    "multibody": _multibody,
}


def build(name, seed):
    w = Workload(name)
    _BUILDERS[name](w, seed)
    return w
