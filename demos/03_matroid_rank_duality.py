"""
Two matroids, one rank
======================

The strongly-T-sparse edge sets form a matroid; so do the edge sets with
independent rigidity-matrix rows at a generic T-coincident realization.
For |T| <= 3 these are the same matroid, which this demo exercises from
three directions: greedy bases over both oracles, the dual cover minimum,
and small circuits.
"""

from coinrig import (circuits_upto, complete_graph, fixtures, greedy_rank,
                     laman_oracle, mt_oracle, mt_rank_cover_min, rt_oracle)

# %% Greedy over an independence oracle builds a base in canonical edge
# order.  The edge between the two coincident vertices of K4 is a loop of
# the matroid, so it never enters.
K4 = complete_graph(4)
cert = greedy_rank(mt_oracle(K4, {0, 1}))
print("K4, T = {0,1}: rank", cert.rank, "base", list(cert.base))

# %% The counterexample fixture has 13 edges but rank 12: both the counting
# oracle and the exact-linear-algebra oracle see the same dependence.
fig4 = fixtures()["fig4"]
mt = greedy_rank(mt_oracle(fig4.graph, fig4.T))
rt = greedy_rank(rt_oracle(fig4.graph, fig4.T, seed=5))
print("\ncounterexample: |E| =", len(fig4.graph.edges),
      " mt rank =", mt.rank, " rt rank =", rt.rank)

# %% Rank has a dual description: the minimum value of a 1-thin augmented
# S-compatible family covering the edges outside T.  The minimizer is a
# flexibility certificate anyone can recheck by counting.
value, witness = mt_rank_cover_min(fig4.graph, fig4.T)
labels = fig4.graph.labels
print("cover minimum:", value)
print("  over S =", [labels[v] for v in sorted(witness.S)])
print("  family:", [[labels[v] for v in sorted(H)] for H in witness.family.members])
print("  plain sets:", [[labels[v] for v in sorted(X)] for X in witness.xsets])

# %% Circuits are the minimal dependent sets.  For the plain (non-coincident)
# matroid on K4 the unique circuit is all six edges; with vertices 0,1
# coincident the edge {0,1} itself becomes a loop.
print("\nplain circuits of K4:",
      [sorted(c) for c in circuits_upto(laman_oracle(K4), 6)])
print("coincident circuits of K4 up to size 1:",
      [sorted(c) for c in circuits_upto(mt_oracle(K4, {0, 1}), 1)])

# %% In the counterexample, the six edges between {u,v} and {b,c,d} form a
# circuit: that is exactly the family violation seen in demo 02.
circuits = circuits_upto(mt_oracle(fig4.graph, fig4.T), 6)
print("counterexample circuits up to size 6:",
      [[f"{labels[a]}{labels[b]}" for a, b in sorted(c)] for c in circuits])
