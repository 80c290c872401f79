"""Exhaustive small-scale agreement checks (every edge subset, every T).

Random harnesses can miss corner cases; on five vertices the whole space is
small enough to sweep completely, and on six the Graph Atlas (every graph
up to isomorphism, with every T) is.  Sweeps whose check stays cheap on
large graphs add random graphs past the enumeration cap.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from coinrig.checks import check_coincident_rigidity, random_instance
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import generic_rank
from coinrig.matroid import greedy_rank, mt_oracle, rt_oracle
from coinrig.pebble import pebble_rank_23
from coinrig.sparsity import _broken_S, is_strongly_T_sparse

from test_sparsity import _hinged_graph, _reference_strong, _warm_and_cold_agree


def test_exhaustive_k5_pairs():
    n = 5
    all_edges = complete_graph(n).edge_list()
    count = 0
    for t_pair in combinations(range(n), 2):
        T = frozenset(t_pair)
        for r in range(len(all_edges) + 1):
            for sub in combinations(all_edges, r):
                g = Graph(n, sub)
                mt = mt_oracle(g, T).test(sub)
                rt = rt_oracle(g, T, seed=count).test(sub)
                assert mt == rt, (sub, sorted(T))
                count += 1
    assert count == 10 * 2 ** 10


def test_exhaustive_k5_triples():
    n = 5
    all_edges = complete_graph(n).edge_list()
    count = 0
    for t_triple in combinations(range(n), 3):
        T = frozenset(t_triple)
        for r in range(len(all_edges) + 1):
            for sub in combinations(all_edges, r):
                g = Graph(n, sub)
                mt = mt_oracle(g, T).test(sub)
                rt = rt_oracle(g, T, seed=count).test(sub)
                assert mt == rt, (sub, sorted(T))
                count += 1
    assert count == 10 * 2 ** 10


def test_base_cardinality_axiom_exhaustive_k4():
    # every maximal independent subset of every E' has the same size
    K4 = complete_graph(4)
    edges = K4.edge_list()
    for T in [frozenset(p) for p in combinations(range(4), 2)] + [frozenset({0, 1, 2})]:
        independent = {}
        for r in range(len(edges) + 1):
            for sub in combinations(edges, r):
                independent[frozenset(sub)] = (
                    is_strongly_T_sparse(Graph(4, sub), T) is None)
        for r in range(len(edges) + 1):
            for eprime in combinations(edges, r):
                es = frozenset(eprime)
                maximal_sizes = set()
                for k in range(len(eprime), -1, -1):
                    for sub in combinations(eprime, k):
                        ss = frozenset(sub)
                        if not independent[ss]:
                            continue
                        if any(independent[ss | {e}] for e in es - ss):
                            continue  # not maximal
                        maximal_sizes.add(k)
                assert len(maximal_sizes) == 1, (sorted(es), sorted(T))


def _atlas(max_n):
    nx = pytest.importorskip("networkx")
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n <= max_n:
            yield Graph(n, list(atlas_graph.edges()))


def test_greedy_mt_bases_over_the_graph_atlas():
    # every graph on 3-6 vertices and every T with |T| = 2-4: the pebble-game
    # checker's greedy base is strongly T-sparse, and maximal, by an
    # enumeration that plays no pebble game
    pairs = families = 0
    for g in _atlas(6):
        n = g.n
        if n < 3:
            continue
        for k in range(2, min(4, n) + 1):
            for T in combinations(range(n), k):
                base = greedy_rank(mt_oracle(g, T)).base
                assert _reference_strong(Graph(n, base), T) is None, (g.edge_list(), T)
                for e in g.edges - set(base):
                    hit = _reference_strong(Graph(n, base + (e,)), T)
                    assert hit is not None, (g.edge_list(), T, e)
                    families += hit[1] == "family"
                pairs += 1
    assert pairs == 8787 and families > 100


def test_check_agrees_with_both_greedy_ranks_over_the_graph_atlas():
    # every graph on at most 6 vertices and every T with |T| = 2 or 3, where
    # the paper proves the characterization: check's two verdicts, "greedy
    # mt rank = 2n - 3" and "greedy rt rank = 2n - 3" all agree, and so do
    # the two ranks
    pairs, mismatches = 0, []
    for g in _atlas(6):
        for k in (2, 3):
            for T in combinations(range(g.n), k):
                mt = greedy_rank(mt_oracle(g, T)).rank
                rt = greedy_rank(rt_oracle(g, T)).rank
                v = check_coincident_rigidity(g, T)
                verdicts = (v.combinatorial, v.algebraic,
                            mt == 2 * g.n - 3, rt == 2 * g.n - 3)
                if len(set(verdicts)) > 1 or mt != rt:
                    mismatches.append((g.edge_list(), T, verdicts, mt, rt))
                pairs += 1
    assert mismatches == []
    assert pairs == 6268


def test_mt_rank_equals_rt_rank_over_the_graph_atlas_beyond_the_theorem():
    # |T| = 4 or 5, where the paper's conjecture is unproved
    pairs, mismatches = 0, []
    for g in _atlas(6):
        for k in (4, 5):
            for T in combinations(range(g.n), k):
                mt = greedy_rank(mt_oracle(g, T)).rank
                rt = greedy_rank(rt_oracle(g, T)).rank
                if mt != rt:
                    mismatches.append((g.edge_list(), T, mt, rt))
                pairs += 1
    assert mismatches == []
    assert pairs == 3491


def test_warm_family_games_match_cold_replays_over_the_graph_atlas():
    verdicts = []
    for g in _atlas(6):
        if pebble_rank_23(g) == len(g.edges):
            sets = [frozenset(S) for k in (2, 3) for S in combinations(range(g.n), k)]
            verdicts += _warm_and_cold_agree(g, sets)
    assert (len(verdicts), verdicts.count(True)) == (1630, 32)


def test_the_whole_graph_decision_matches_the_mt_oracle():
    # _broken_S copies G's final game onto each G/S; the mt oracle feeds
    # every edge to a fresh checker, one game per S.  Every graph on at
    # most 6 vertices with every T of 1-5 vertices, random_instance draws
    # up to 60 vertices with |T| = 2-5, hinged graphs (family violations),
    # and a T over the cap, which both refuse
    def agree(g, T):
        s = _broken_S(g, T)
        assert (s is None) == mt_oracle(g, T).test(g.edges), (g.edge_list(), sorted(T))
        if s is None:
            return "sparse"
        return len(s), ("count" if len(s) == 1 else
                        "edge" if g.induced_edge_count(s) else "family")

    atlas = Counter(agree(g, frozenset(T)) for g in _atlas(6)
                    for k in range(1, min(5, g.n) + 1) for T in combinations(range(g.n), k))
    assert atlas == {"sparse": 2546, (1, "count"): 3239, (2, "edge"): 5020, (2, "family"): 121}
    rng = random.Random(60)
    drawn = Counter(agree(*random_instance(rng, 60, 2 + i % 4)) for i in range(120))
    drawn.update(agree(*_hinged_graph(rng)) for _ in range(200))
    assert drawn.keys() == atlas.keys() and min(drawn.values()) >= 10, drawn
    g, T = random_instance(rng, 20, 13)
    for decide in (lambda: _broken_S(g, T), lambda: mt_oracle(g, T).test(g.edges)):
        with pytest.raises(ValueError, match="T has 13 vertices, enumeration cap is 12"):
            decide()


def test_verdicts_and_ranks_are_invariant_under_relabeling():
    # a random vertex permutation changes no verdict and no rank: one T per
    # graph on 2-6 vertices, and random graphs up to 30 vertices
    def verdicts(g, T):
        rep = generic_rank(g, T, 2, seed=5)
        v = check_coincident_rigidity(g, T, seed=5)
        try:
            sparse = is_strongly_T_sparse(g, T) is None
        except ValueError:  # a violation past the cap is refused for want of its witness
            sparse = False
        return (rep.rank, rep.rigid, rep.independent, v.combinatorial, v.algebraic,
                sparse, greedy_rank(mt_oracle(g, T)).rank)

    rng = random.Random(30)
    cases = [(g, frozenset(rng.sample(range(g.n), rng.randint(1, min(4, g.n)))))
             for g in _atlas(6) if g.n >= 2]
    cases += [random_instance(rng, 30, rng.randint(1, 4)) for _ in range(40)]
    for g, T in cases:
        perm = rng.sample(range(g.n), g.n)
        h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
        assert verdicts(g, T) == verdicts(h, frozenset(perm[t] for t in T)), \
            (g.edge_list(), sorted(T), perm)
