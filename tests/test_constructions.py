import random
from fractions import Fraction
from itertools import combinations

import pytest

from coinrig.constructions import (SplitSpec, henneberg_random, one_extension,
                                   reduce_low_degree, replace_rigid_subgraph,
                                   vertex_split, zero_extension)
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import (Realization, rank_exact, rigidity_matrix,
                            sample_T_coincident)
from coinrig.matroid import greedy_rank, mt_oracle
from coinrig.pebble import pebble_rank_23
from coinrig.sparsity import is_strongly_T_sparse


def rand_point(rng):
    return (Fraction(rng.randint(-2 ** 20, 2 ** 20)),
            Fraction(rng.randint(-2 ** 20, 2 ** 20)))


def test_zero_extension_counts():
    g = zero_extension(Graph(2, [(0, 1)]), 0, 1)
    assert g == complete_graph(3)
    h = Graph(2, [(0, 1)])
    for _ in range(6):
        h = zero_extension(h, 0, h.n - 1)
    assert len(h.edges) == 2 * h.n - 3
    with pytest.raises(ValueError):
        zero_extension(g, 1, 1)


def test_zero_extension_rank_plus_two():
    rng = random.Random(0)
    for _ in range(25):
        g = henneberg_random(rng.randint(3, 8), rng.getrandbits(16))
        a, b = rng.sample(range(g.n), 2)
        g2 = zero_extension(g, a, b)
        p2 = sample_T_coincident(g2, {0}, 2, rng.getrandbits(16))
        p = Realization(2, {v: p2.coords[v] for v in range(g.n)})
        assert (rank_exact(rigidity_matrix(g2, p2))
                == rank_exact(rigidity_matrix(g, p)) + 2)


def test_one_extension_counts():
    tri = complete_graph(3)
    g = one_extension(tri, (0, 1), 2)
    assert (g.n, len(g.edges)) == (4, 5)
    assert not g.has_edge(0, 1)
    hen = henneberg_random(6, 1)
    g2 = one_extension(hen, hen.edge_list()[0], 5)
    assert len(g2.edges) == 2 * g2.n - 3
    with pytest.raises(ValueError, match="not an edge"):
        one_extension(g, (0, 1), 2)  # (0,1) was deleted by the first extension
    with pytest.raises(ValueError, match="differ"):
        one_extension(tri, (0, 1), 1)


def test_one_extension_independence_witness():
    # some placement of the new vertex keeps the framework independent
    rng = random.Random(1)
    for _ in range(25):
        g = henneberg_random(rng.randint(4, 8), rng.getrandbits(16))
        p = sample_T_coincident(g, {0}, 2, rng.getrandbits(16))
        assert rank_exact(rigidity_matrix(g, p)) == len(g.edges)
        uv = rng.choice(g.edge_list())
        x = rng.choice([w for w in range(g.n) if w not in uv])
        g2 = one_extension(g, uv, x)
        for _ in range(5):
            coords = dict(p.coords)
            coords[g.n] = rand_point(rng)
            if rank_exact(rigidity_matrix(g2, Realization(2, coords))) == len(g2.edges):
                break
        else:
            raise AssertionError("no independent placement found in 5 samples")


def test_vertex_split_counts():
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    spec = SplitSpec(0, frozenset({1}), frozenset({2, 3}), frozenset({4}))
    g = vertex_split(star, spec)
    assert (g.n, len(g.edges)) == (6, 6)
    assert g.neighbors(5) == {2, 3, 4}
    assert g.neighbors(0) == {1, 2, 3}
    # empty U3: the copy has degree two
    spec2 = SplitSpec(0, frozenset({1, 4}), frozenset({2, 3}), frozenset())
    g2 = vertex_split(star, spec2)
    assert g2.degree(5) == 2
    with pytest.raises(ValueError, match="partition"):
        vertex_split(star, SplitSpec(0, frozenset({1}), frozenset({2, 3}), frozenset()))
    with pytest.raises(ValueError, match="exactly two"):
        SplitSpec(0, frozenset({1}), frozenset({2}), frozenset({3, 4}))


def test_vertex_split_coincident_preservation():
    # placing the copy on top of z keeps independence (z, z1, z2 generic)
    rng = random.Random(2)
    for _ in range(25):
        g = henneberg_random(rng.randint(4, 8), rng.getrandbits(16))
        z = rng.choice([v for v in range(g.n) if g.degree(v) >= 2])
        nb = sorted(g.neighbors(z))
        rng.shuffle(nb)
        u2 = frozenset(nb[:2])
        rest = nb[2:]
        cut = rng.randint(0, len(rest))
        g2 = vertex_split(g, SplitSpec(z, frozenset(rest[:cut]), u2,
                                       frozenset(rest[cut:])))
        p = sample_T_coincident(g, {0}, 2, rng.getrandbits(16))
        assert rank_exact(rigidity_matrix(g, p)) == len(g.edges)
        coords = dict(p.coords)
        coords[g.n] = p.coords[z]
        r2 = rank_exact(rigidity_matrix(g2, Realization(2, coords)))
        assert r2 == len(g2.edges) == len(g.edges) + 2


def test_replace_rigid_subgraph_counts():
    # rigid block of six vertices contracted to a completed triangle
    gy = henneberg_random(6, 3)
    g = gy
    for _ in range(3):
        g = zero_extension(g, 0, g.n - 1)
    parts = [[0, 1], [2, 3], [4, 5]]
    out = replace_rigid_subgraph(g, range(6), parts)
    assert out.n == g.n - 6 + 3
    reps = {0, 1, 2}
    for a, b in combinations(sorted(reps), 2):
        assert out.has_edge(a, b)
    with pytest.raises(ValueError, match="three classes"):
        replace_rigid_subgraph(g, range(6), [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="partition Y"):
        replace_rigid_subgraph(g, range(6), [[0], [1], [2]])
    # a vertex of Y outside the graph is a ValueError, as elsewhere
    for bad in (99, -1):
        with pytest.raises(ValueError, match=f"Y contains invalid vertex {bad}"):
            replace_rigid_subgraph(complete_graph(5), [0, 1, bad], [[0], [1], [bad]])


def test_replace_recovers_inner_triangle_fixture():
    # inflating one inner vertex of the first base-case graph and replacing
    # the blown-up block reproduces the original graph
    from coinrig.checks import fixtures
    fig31 = fixtures()["fig3-1"].graph
    inflated = fig31.add_vertex([6, 7, 8])  # Y = {d,e,f} and the new vertex is K4
    out = replace_rigid_subgraph(inflated, [6, 7, 8, 9], [[6, 9], [7], [8]])
    assert out.n == 9 and out.edges == fig31.edges


def test_reduce_low_degree():
    rng = random.Random(5)
    done2 = done3 = 0
    while done2 < 10 or done3 < 10:
        g = henneberg_random(rng.randint(5, 8), rng.getrandbits(16))
        T = frozenset(rng.sample(range(g.n), 2))
        if is_strongly_T_sparse(g, T) is not None:
            continue
        for z in range(g.n):
            if z in T or len(g.neighbors(z) & T) > 1:
                continue
            d = g.degree(z)
            if d == 2 and done2 < 10:
                out = reduce_low_degree(g, T, z)
                newT = frozenset(t if t < z else t - 1 for t in T)
                assert out.n == g.n - 1
                assert is_strongly_T_sparse(out, newT) is None
                done2 += 1
            elif d == 3 and done3 < 10:
                out = reduce_low_degree(g, T, z)
                newT = frozenset(t if t < z else t - 1 for t in T)
                assert out.n == g.n - 1
                assert len(out.edges) == len(g.edges) - 2
                assert is_strongly_T_sparse(out, newT) is None
                done3 += 1


def test_reduce_low_degree_past_the_enumeration_cap():
    # the input and candidate checks ask the mt oracle, which plays pebble
    # games at any size
    T = frozenset({0, 1, 2})
    g = henneberg_random(40, 3).delete_edges(combinations(T, 2))
    base = Graph(40, greedy_rank(mt_oracle(g, T)).base)
    assert reduce_low_degree(zero_extension(base, 0, 3), T, 40) == base
    u, v = next(e for e in base.edge_list() if not set(e) & T)
    out = reduce_low_degree(one_extension(base, (u, v), 0), T, 40)
    assert out.n == 40 and len(out.edges) == len(base.edges)
    assert mt_oracle(out, T).test(out.edges)


def test_reduce_low_degree_preconditions():
    g = henneberg_random(6, 7)
    T = frozenset({0, 1})
    with pytest.raises(ValueError, match="outside T"):
        reduce_low_degree(g, T, 0)
    # a vertex with two neighbours in T is rejected
    K4 = complete_graph(4).delete_edges([(0, 1)])
    assert is_strongly_T_sparse(K4, {0, 1}) is None
    with pytest.raises(ValueError, match="one neighbour"):
        reduce_low_degree(K4, {0, 1}, 2)
    dep = complete_graph(4)  # not strongly T-sparse: Laman-overfull
    with pytest.raises(ValueError, match="not strongly"):
        reduce_low_degree(dep, {0}, 1)


def test_henneberg_random():
    assert henneberg_random(3, 0) == complete_graph(3)
    g1, g2 = henneberg_random(9, 5), henneberg_random(9, 5)
    assert g1 == g2
    assert henneberg_random(9, 6) != g1
    for seed in range(8):
        g = henneberg_random(rng_n := 4 + seed, seed)
        assert len(g.edges) == 2 * rng_n - 3
        assert pebble_rank_23(g) == 2 * rng_n - 3
    with pytest.raises(ValueError):
        henneberg_random(1, 0)


def chained_henneberg(n, seed):
    # the generator as a chain of validated extension moves: one Graph per step
    rng = random.Random(seed)
    g = Graph(2, [(0, 1)])
    while g.n < n:
        if g.n < 3 or rng.random() < 0.7:
            a, b = rng.sample(range(g.n), 2)
            g = zero_extension(g, a, b)
        else:
            u, v = rng.choice(g.edge_list())
            x = rng.choice([w for w in range(g.n) if w not in (u, v)])
            g = one_extension(g, (u, v), x)
    return g


def test_henneberg_random_matches_chained_extensions():
    # the generator draws what the chained moves draw, so its graphs (and
    # every benchmark input made from them) stay the same
    for n in [*range(2, 40), 60, 120, 250]:
        for seed in range(40):
            assert henneberg_random(n, seed) == chained_henneberg(n, seed), (n, seed)
