"""
Growth operations with rank bookkeeping
=======================================

0-extensions, 1-extensions, vertex splits and rigid-subgraph replacement
grow a graph while preserving independence or rigidity under mild geometric
conditions.  Each step below verifies the promised rank change with exact
arithmetic rather than trusting the count.
"""

import random
from fractions import Fraction

from coinrig import (Realization, SplitSpec, henneberg_random, one_extension,
                     pebble_rank_23, rank_exact, reduce_low_degree,
                     replace_rigid_subgraph, rigidity_matrix, rigidity_target,
                     sample_T_coincident, vertex_split, zero_extension)
from coinrig.graph import Graph

rng = random.Random(0)

# %% A 0-extension hangs a new vertex on two old ones: +1 vertex, +2 edges,
# and (for generic placement) exactly +2 rank.
g = henneberg_random(6, seed=3)
g2 = zero_extension(g, 0, 1)
p2 = sample_T_coincident(g2, {0}, 2, seed=11)
p = Realization(2, {v: p2.coords[v] for v in range(g.n)})
print("0-extension:",
      rank_exact(rigidity_matrix(g, p)), "->", rank_exact(rigidity_matrix(g2, p2)))

# %% A 1-extension subdivides an edge onto a new vertex with a third
# neighbour.  Keeping the old points and sampling the new vertex, some
# placement is independent (collinear samples are measure zero).
edge = g.edge_list()[0]
g3 = one_extension(g, edge, x=5)
for _ in range(5):
    coords = dict(p.coords)
    coords[g.n] = (Fraction(rng.randint(-2 ** 20, 2 ** 20)),
                   Fraction(rng.randint(-2 ** 20, 2 ** 20)))
    if rank_exact(rigidity_matrix(g3, Realization(2, coords))) == len(g3.edges):
        print("1-extension: independent placement found,",
              len(g3.edges), "independent rows")
        break

# %% A vertex split leaves the copy on top of the original.  As long as the
# two shared neighbours are not collinear with the split vertex, the
# coincident pair keeps the framework independent: +2 rows, +2 rank.
star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
split = vertex_split(star, SplitSpec(0, frozenset({1}), frozenset({2, 3}),
                                     frozenset({4})))
print("vertex split of a star:", star.n, "vertices ->", split.n,
      "vertices,", len(split.edges), "edges")

z = 2
nb = sorted(g.neighbors(z))
gsplit = vertex_split(g, SplitSpec(z, frozenset(nb[2:]), frozenset(nb[:2]),
                                   frozenset()))
coords = dict(p.coords)
coords[g.n] = p.coords[z]
print("coincident split rank:", rank_exact(rigidity_matrix(g, p)), "->",
      rank_exact(rigidity_matrix(gsplit, Realization(2, coords))))

# %% Rigid-subgraph replacement contracts each class of a partition of a
# rigid block Y to one vertex and joins the class representatives in a
# triangle.  Y is the rigid 6-vertex graph above, inside a 9-vertex graph
# grown from it by three 0-extensions; the replaced graph is rigid again:
# a generic sample reaches the target rank.
grown = g
for _ in range(3):
    grown = zero_extension(grown, 0, grown.n - 1)
replaced = replace_rigid_subgraph(grown, range(6), [[0, 1], [2, 3], [4, 5]])
q = sample_T_coincident(replaced, {0}, 2, seed=5)
rank = rank_exact(rigidity_matrix(replaced, q))
print("rigid-subgraph replacement:", grown.n, "->", replaced.n, "vertices, rank",
      rank, "of target", rigidity_target(replaced.n, 2))
assert rank == rigidity_target(replaced.n, 2)

# %% The inverse direction: a degree-2 or degree-3 vertex outside T can be
# removed (adding one repair edge in the degree-3 case) without losing
# strong T-sparsity.  T must be a non-adjacent pair here: an edge between
# coincident vertices has capacity zero.
from itertools import combinations

from coinrig import is_strongly_T_sparse

done = False
for a, b in combinations(range(g.n), 2):
    T = frozenset({a, b})
    if g.has_edge(a, b) or is_strongly_T_sparse(g, T) is not None:
        continue
    for z in range(g.n):
        if z in T or len(g.neighbors(z) & T) > 1 or g.degree(z) not in (2, 3):
            continue
        reduced = reduce_low_degree(g, T, z)
        print("low-degree reduction at", z, "with T =", sorted(T), ":",
              g.n, "->", reduced.n, "vertices")
        done = True
        break
    if done:
        break

# %% Chaining random extensions generates arbitrarily large independent
# graphs with 2n-3 edges; the pebble game certifies every one of them.
big = henneberg_random(200, seed=1)
print("generated graph:", big.n, "vertices,", len(big.edges), "edges,",
      "pebble rank", pebble_rank_23(big))
