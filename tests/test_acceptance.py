"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and budget is pinned here.
"""

import random
import time
from itertools import combinations

from coinrig.checks import (coincident_rigid_combinatorial, cross_validate,
                            fixtures, random_instance)
from coinrig.constructions import (SplitSpec, henneberg_random, one_extension,
                                   replace_rigid_subgraph, vertex_split,
                                   zero_extension)
from coinrig.graph import Graph
from coinrig.linalg import (Realization, generic_rank,
                            generic_realization, is_infinitesimally_rigid,
                            rank_exact, rigidity_matrix, rigidity_target)
from coinrig.matroid import greedy_rank, mt_oracle, mt_rank_cover_min
from coinrig.pebble import pebble_rank_23
from coinrig.sparsity import min_thin_cover


def _report(num, desc, elapsed, budget):
    print(f"PASS criterion {num}: {desc} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget


def test_criterion_1_fig3_printed_realization():
    t0 = time.perf_counter()
    f = fixtures()["fig3-1"]
    rank = rank_exact(rigidity_matrix(f.graph, f.realization))
    assert rank == 15 == 2 * 9 - 3
    _report(1, "printed base-case realization has exact rank 15",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_all_seven_base_cases():
    t0 = time.perf_counter()
    for i in range(1, 8):
        f = fixtures()[f"fig3-{i}"]
        rep = generic_rank(f.graph, f.T, 2, trials=3, seed=i)
        assert rep.rank == 15 and rep.rigid, f.name
    _report(2, "all seven base-case graphs reach coincident rank 15",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_counterexample_graph():
    t0 = time.perf_counter()
    f = fixtures()["fig4"]
    g, T = f.graph, f.T
    assert pebble_rank_23(g) == 13 == rigidity_target(8, 2)
    gT = g.contract(T)
    assert pebble_rank_23(gT) == 9 == 2 * 6 - 3
    guv = g.contract({0, 1})
    assert pebble_rank_23(guv) <= 10 < 11
    verdict = coincident_rigid_combinatorial(g, T)
    assert verdict.combinatorial is False
    assert verdict.failing_S == frozenset({0, 1})
    rep = generic_rank(g, T, 2, trials=3, seed=3)
    assert rep.rank == 12 < 13 and rep.rigid is False
    _report(3, "counterexample: deletion/contraction fails at S={u,v}, rank 12",
            time.perf_counter() - t0, 1.0)


def test_criterion_4_cross_validation_500():
    t0 = time.perf_counter()
    report = cross_validate(7, [1, 2, 3], 500, seed=20250811)
    assert report["samples"] == 500
    assert report["mismatches"] == 0, report["mismatch_details"]
    _report(4, "500 random instances: zero combinatorial/algebraic mismatches",
            time.perf_counter() - t0, 600.0)


def test_criterion_5_duality_200():
    t0 = time.perf_counter()
    rng = random.Random(1105)
    for trial in range(200):
        g, T = random_instance(rng, 7, [2, 3][trial % 2])
        if trial % 2:  # an edge subset, ranked as the subgraph it spans
            g = Graph(g.n, [e for e in g.edge_list() if rng.random() < 0.8])
        rank = greedy_rank(mt_oracle(g, T)).rank
        value, witness = mt_rank_cover_min(g, T)
        assert rank == value, (g.edge_list(), sorted(T))
    _report(5, "200 random instances: greedy rank equals the cover minimum",
            time.perf_counter() - t0, 600.0)


def test_criterion_6_rank_oracle_agreement_1000():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for trial in range(1000):
        n = rng.randint(3, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        ly = min_thin_cover(n, [(1 << a) | (1 << b) for a, b in g.edge_list()])[0]
        pb = pebble_rank_23(g)
        gr = generic_rank(g, {0}, 2, trials=3, seed=rng.getrandbits(31)).rank
        assert ly == pb == gr, (g.edge_list(), ly, pb, gr)
    _report(6, "1000 random graphs: cover = pebble = exact-rank agreement",
            time.perf_counter() - t0, 600.0)


def test_criterion_7_k55():
    t0 = time.perf_counter()
    f = fixtures()["k55"]
    uv = tuple(sorted(f.T))
    rep = generic_rank(f.graph, f.T, 3, trials=3, seed=7)
    assert rep.rank <= 23 < 24 and rep.method == "exact-rational"
    rep_minus = generic_rank(f.graph.delete_edges([uv]), {0}, 3, trials=3, seed=7)
    assert rep_minus.rank == 24 and rep_minus.rigid
    gc = f.graph.contract(f.T)
    rep_contr = generic_rank(gc, {0}, 3, trials=3, seed=7)
    assert rep_contr.rank == 21 and rep_contr.rigid
    _report(7, "K55 coincident rank <= 23; minus/contracted ranks 24 and 21",
            time.perf_counter() - t0, 30.0)


def test_criterion_8_extension_moves():
    t0 = time.perf_counter()
    rng = random.Random(808)

    for _ in range(100):  # 0-extension adds exactly two to the rank
        g = henneberg_random(rng.randint(3, 8), rng.getrandbits(20))
        a, b = rng.sample(range(g.n), 2)
        g2 = zero_extension(g, a, b)
        p2 = generic_realization(g2, 2, rng.getrandbits(20))
        p = Realization(2, {v: p2.coords[v] for v in range(g.n)})
        assert (rank_exact(rigidity_matrix(g2, p2))
                == rank_exact(rigidity_matrix(g, p)) + 2)

    for _ in range(100):  # 1-extension admits an independent placement
        g = henneberg_random(rng.randint(4, 8), rng.getrandbits(20))
        p = generic_realization(g, 2, rng.getrandbits(20))
        assert rank_exact(rigidity_matrix(g, p)) == len(g.edges)
        uv = rng.choice(g.edge_list())
        x = rng.choice([w for w in range(g.n) if w not in uv])
        g2 = one_extension(g, uv, x)
        for _ in range(5):
            coords = dict(p.coords)
            coords[g.n] = generic_realization(Graph(1, []), 2,
                                              rng.getrandbits(20)).coords[0]
            if rank_exact(rigidity_matrix(g2, Realization(2, coords))) == len(g2.edges):
                break
        else:
            raise AssertionError("1-extension: no independent placement found")

    for _ in range(100):  # coincident vertex split stays independent
        g = henneberg_random(rng.randint(4, 8), rng.getrandbits(20))
        z = rng.choice([v for v in range(g.n) if g.degree(v) >= 2])
        nb = sorted(g.neighbors(z))
        rng.shuffle(nb)
        rest = nb[2:]
        cut = rng.randint(0, len(rest))
        g2 = vertex_split(g, SplitSpec(z, frozenset(rest[:cut]),
                                       frozenset(nb[:2]), frozenset(rest[cut:])))
        p = generic_realization(g, 2, rng.getrandbits(20))
        assert rank_exact(rigidity_matrix(g, p)) == len(g.edges)
        coords = dict(p.coords)
        coords[g.n] = p.coords[z]
        assert (rank_exact(rigidity_matrix(g2, Realization(2, coords)))
                == len(g.edges) + 2)

    done = 0  # rigid-subgraph replacement: the lifted frameworks stay rigid
    while done < 100:
        ky = rng.randint(4, 6)
        g = henneberg_random(ky, rng.getrandbits(20))
        for _ in range(rng.randint(2, 3)):
            a, b = rng.sample(range(g.n), 2)
            g = zero_extension(g, a, b)
        Y = list(range(ky))
        rng.shuffle(Y)
        parts = [Y[0:1], Y[1:2], Y[2:]]
        gprime = replace_rigid_subgraph(g, range(ky), parts)
        if pebble_rank_23(gprime) != rigidity_target(gprime.n, 2):
            continue  # the preservation claim assumes a rigid replacement
        pprime = generic_realization(gprime, 2, rng.getrandbits(20))
        if not is_infinitesimally_rigid(gprime, pprime):
            continue
        where = {v: v for v in range(g.n)}
        cur = g
        for block in parts:
            ids = {where[v] for v in block}
            if len(ids) >= 2:
                cmap = cur.contraction_map(ids)
                cur = cur.contract(ids)
                where = {v: cmap[i] for v, i in where.items()}
        coincident = Realization(2, {v: pprime.coords[where[v]]
                                     for v in range(g.n)})
        # the proof's framework: G plus all block-internal edges, lifted
        gstar = g.add_edges([e for e in combinations(range(ky), 2)])
        assert is_infinitesimally_rigid(gstar, coincident)
        # the stated conclusion: some realization agreeing outside Y is rigid
        coords = dict(coincident.coords)
        fresh = generic_realization(Graph(ky, []), 2, rng.getrandbits(20))
        for v in range(ky):
            coords[v] = fresh.coords[v]
        assert is_infinitesimally_rigid(g, Realization(2, coords))
        done += 1

    _report(8, "extension moves: 100 randomized instances each, exact ranks",
            time.perf_counter() - t0, 300.0)


def test_criterion_9_matroid_axiom_suite():
    t0 = time.perf_counter()
    rng = random.Random(909)
    for _ in range(1000):
        t_size = rng.randint(1, 4)
        g, T = random_instance(rng, 7, t_size)
        oracle = mt_oracle(g, T)
        edges = g.edge_list()
        sizes = set()
        for _ in range(20):
            order = edges[:]
            rng.shuffle(order)
            checker = oracle.incremental()
            sizes.add(sum(1 for a, b in order if checker(a, b)))
            if len(sizes) > 1:
                break
        assert len(sizes) == 1, (g.edge_list(), sorted(T), sizes)
    _report(9, "1000 instances x 20 edge orders: greedy base size invariant",
            time.perf_counter() - t0, 600.0)
