"""Property tests of the public sparsity decisions (n <= 9, |T| <= 4).

The pebble games behind the decisions walk edges and vertices in an order
that depends on the vertex labels, so a verdict that changed under
relabeling would expose an order-dependent game.  The growth moves that
keep strong sparsity are checked from greedy ``mt`` bases, and a greedy
rank must not depend on the order the edges are offered in.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from coinrig.constructions import one_extension, reduce_low_degree, zero_extension
from coinrig.graph import Graph
from coinrig.matroid import greedy_rank, laman_oracle, mt_oracle
from coinrig.sparsity import is_S_sparse, is_strongly_T_sparse

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def graphs_with_T(draw):
    # vertices joined to every vertex of a hub inside T are common
    # neighbours of the hub, which is where family violations come from; an
    # edge inside T, which decides at once, is drawn only now and then
    n = draw(st.integers(2, 9))
    T = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    inside = [(a, b) for a, b in pairs if a in T and b in T]
    outside = [e for e in pairs if e not in inside]
    others = [v for v in range(n) if v not in T]
    edges = draw(st.lists(st.sampled_from(outside), max_size=2 * n)) if outside else []
    if others and len(T) > 1:
        hub = draw(st.sets(st.sampled_from(sorted(T)), min_size=2))
        for x in draw(st.sets(st.sampled_from(others), max_size=4)):
            edges += [(t, x) for t in hub]
    if inside and draw(st.integers(0, 7)) == 7:
        edges.append(draw(st.sampled_from(inside)))
    return Graph(n, edges), frozenset(T)


@PROPERTY
@given(st.data())
def test_verdicts_are_invariant_under_relabeling(data):
    g, T = data.draw(graphs_with_T())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
    U = frozenset(perm[t] for t in T)
    for decide in (is_strongly_T_sparse, is_S_sparse):
        assert (decide(g, T) is None) == (decide(h, U) is None), decide.__name__


@PROPERTY
@given(st.data())
def test_greedy_rank_is_independent_of_edge_order(data):
    # in a matroid every maximal independent set has the same size: a fresh
    # checker fed the edges in any order keeps rank-many, and they are
    # independent
    g, T = data.draw(graphs_with_T())
    order = data.draw(st.permutations(sorted(g.edges)))
    for oracle in (mt_oracle(g, T), laman_oracle(g)):
        add = oracle.incremental()
        kept = [(a, b) for a, b in order if add(a, b)]
        assert len(kept) == greedy_rank(oracle).rank, (oracle.name, order, sorted(T))
        assert oracle.test(kept), (oracle.name, order, sorted(T))


@PROPERTY
@given(graphs_with_T())
def test_deleting_an_edge_keeps_strong_sparsity(case):
    g, T = case
    base = Graph(g.n, greedy_rank(mt_oracle(g, T)).base)
    assert is_strongly_T_sparse(base, T) is None
    for e in base.edge_list():
        assert is_strongly_T_sparse(base.delete_edges([e]), T) is None, (base.edge_list(), e)


@PROPERTY
@given(st.data())
def test_zero_extension_keeps_strong_sparsity(data):
    # at most one end in T; the reduction at the new vertex undoes the move
    g, T = data.draw(graphs_with_T())
    base = Graph(g.n, greedy_rank(mt_oracle(g, T)).base)
    ends = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if not (a in T and b in T)]
    assume(ends)
    a, b = data.draw(st.sampled_from(ends))
    grown = zero_extension(base, a, b)
    assert is_strongly_T_sparse(grown, T) is None, (base.edge_list(), sorted(T), a, b)
    assert reduce_low_degree(grown, T, g.n) == base


@PROPERTY
@given(st.data())
def test_one_extension_keeps_strong_sparsity(data):
    # at most one of u, v and x in T
    g, T = data.draw(graphs_with_T())
    base = Graph(g.n, greedy_rank(mt_oracle(g, T)).base)
    moves = [(u, v, x) for u, v in base.edge_list() for x in range(g.n)
             if x not in (u, v) and len({u, v, x} & T) <= 1]
    assume(moves)
    u, v, x = data.draw(st.sampled_from(moves))
    grown = one_extension(base, (u, v), x)
    assert is_strongly_T_sparse(grown, T) is None, (base.edge_list(), sorted(T), u, v, x)
