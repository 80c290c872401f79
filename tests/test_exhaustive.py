"""Exhaustive small-scale agreement checks (every edge subset, every T).

Random harnesses can miss corner cases; on five vertices the whole space is
small enough to sweep completely, and on six the Graph Atlas (every graph
up to isomorphism, with every T) is.
"""

from itertools import combinations

import pytest

from coinrig.checks import check_coincident_rigidity
from coinrig.graph import Graph, complete_graph
from coinrig.matroid import greedy_rank, mt_oracle, rt_oracle
from coinrig.sparsity import is_strongly_T_sparse

from test_sparsity import _reference_strong


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
