"""
Exact rigidity ranks
====================

A framework is a graph together with a point for every vertex; its rigidity
matrix has one row per edge and d columns per vertex.  Everything here is
computed in exact rational arithmetic, so a rank statement is a certificate,
not a numerical guess.
"""

from fractions import Fraction

from coinrig import (Realization, complete_graph, generic_rank,
                     henneberg_random, rank_exact, rigidity_matrix,
                     rigidity_target, sample_T_coincident)

# %% A triangle pinned at three explicit points is infinitesimally rigid:
# its three rows are independent and 3 = 2*3 - 3 is the rigid target.
tri = complete_graph(3)
p = Realization(2, {0: (Fraction(0), Fraction(0)),
                    1: (Fraction(1), Fraction(0)),
                    2: (Fraction(0), Fraction(1))})
M = rigidity_matrix(tri, p)
print("triangle matrix shape:", M.shape)
print("exact rank:", rank_exact(M), " target:", rigidity_target(3, 2))

# %% Large graphs are ranked over the prime field GF(2^61 - 1): rows
# independent mod p are independent over the rationals, so the rank is a
# certified lower bound.  The method follows the vertex count alone, and a
# Henneberg graph on 40 vertices is above the exact-rational limit of 30.
h40 = henneberg_random(40, seed=1)
big = generic_rank(h40, {0}, d=2, seed=0)
print("Henneberg graph on 40 vertices:", big.method, "rank", big.rank,
      "of target", big.target)
assert big.method == "prime-field" and big.rigid

# %% Coincident vertices.  Forcing a set T of vertices onto one point turns
# some edge rows into zero rows and can destroy rigidity.  K4 with two
# coincident vertices is still rigid; a triangle is not.
K4 = complete_graph(4)
report = generic_rank(K4, {0, 1}, d=2, seed=42)
print("\nK4 with vertices 0,1 coincident:")
print("  rank", report.rank, "of target", report.target, "-> rigid:", report.rigid)

report = generic_rank(tri, {0, 1}, d=2, seed=42)
print("K3 with vertices 0,1 coincident:")
print("  rank", report.rank, "of target", report.target, "-> rigid:", report.rigid)

# %% Sampling is seeded and reproducible; all of T shares the point of min(T).
q = sample_T_coincident(K4, {0, 1}, d=2, seed=7)
print("\nsampled points:", {v: tuple(map(str, pt)) for v, pt in q.coords.items()})
assert q.point(0) == q.point(1)

# %% The report also documents the randomized-rank failure bound: the rank is
# a certified lower bound, and it meets the true generic rank except with the
# stated per-trial probability.
print("\nreport note:", report.note)
