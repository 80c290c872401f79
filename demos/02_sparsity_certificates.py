"""
Counting certificates for coincident rigidity
=============================================

Independence with a coincident vertex set T has a purely combinatorial
characterization: every vertex set and every S-compatible family (for every
nonempty S inside T) must respect its capacity.  The checkers below return
explicit violating witnesses, which makes a flexibility verdict auditable.
"""

from coinrig import (CompatibleFamily, complete_graph, fixtures, is_S_sparse,
                     is_strongly_T_sparse, val_family, val_set)

# %% Set capacities: 2|X| - 3 in general, but 0 for sets inside S (edges
# between coincident vertices have zero rows).
S = frozenset({0, 1})
print("val of a 5-set:", val_set(range(5), S))
print("val of a set inside S:", val_set({0, 1}, S))

# %% An edge between two coincident vertices is already a violation.
v = is_S_sparse(complete_graph(4), S)
print("\nK4, S = {0,1}:", v.kind, "violation, witness", sorted(v.witness),
      f"({v.lhs} > {v.rhs})")

# %% Families are where coincidence really bites.  In the bundled
# counterexample graph, three vertices b, c, d are each joined to both u and
# v.  Each pair of bars to one point buys only one independent row's worth
# of value, and the family of the three triples exceeds its capacity.
fig4 = fixtures()["fig4"]
v = is_strongly_T_sparse(fig4.graph, fig4.T)
print("\ncounterexample graph, T = {u,v,w}:")
print("  failing S:", [fig4.graph.labels[x] for x in sorted(v.S)])
print("  witness family:", [[fig4.graph.labels[x] for x in sorted(H)]
                            for H in v.witness.members])
print("  covered edges", v.lhs, "> capacity", v.rhs)

# %% Yet every single subset S = {u,v,w} check in isolation passes: the
# graph is {u,v,w}-sparse, it only fails strong sparsity through S = {u,v}.
print("  S = {u,v,w} alone passes:", is_S_sparse(fig4.graph, fig4.T) is None)

# %% Overlapping family members can always be merged: the union never covers
# fewer edges and the capacity strictly drops, so violation witnesses may be
# assumed pairwise intersecting exactly in S.
fam = CompatibleFamily(S, (S | {2, 3}, S | {2, 4}))
merged = CompatibleFamily(S, (fam.members[0] | fam.members[1],))
print("\nmerge:", [sorted(H) for H in fam.members], "value", val_family(fam),
      "->", [sorted(H) for H in merged.members], "value", val_family(merged))
