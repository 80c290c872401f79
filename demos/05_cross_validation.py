"""
Cross-validating the two characterizations
==========================================

The deletion/contraction test, the strong-sparsity count, and the exact
rank of sampled coincident realizations are three independent code paths
that must agree.  This demo runs them against each other on the bundled
graphs, on random instances, and on the 3-dimensional example where the
planar characterization provably fails to generalize.
"""

from coinrig import (check_coincident_rigidity, conjecture_search,
                     cross_validate, fixtures, generic_rank)

fx = fixtures()

# %% The seven base-case graphs are coincident rigid for T = {u,v,w}; both
# verdicts say so.
for name in [f"fig3-{i}" for i in (1, 4, 7)]:
    f = fx[name]
    verdict = check_coincident_rigidity(f.graph, f.T, seed=1)
    print(name, "combinatorial:", verdict.combinatorial,
          " algebraic:", verdict.algebraic)

# %% The counterexample graph shows why every contraction must be checked:
# contracting all of T gives a rigid graph, but contracting just {u,v} does
# not, and the graph is indeed not coincident rigid.
f = fx["fig4"]
verdict = check_coincident_rigidity(f.graph, f.T, seed=1)
print("\ncounterexample: combinatorial", verdict.combinatorial,
      " algebraic", verdict.algebraic,
      " failing S:", [f.graph.labels[v] for v in sorted(verdict.failing_S)])

# %% Randomized cross-validation near the rigidity threshold.  Any mismatch
# for |T| <= 3 would be a genuine bug (or a disproof); the harness reports
# and fails on it.
report = cross_validate(n_max=7, t_sizes=[1, 2, 3], samples=150, seed=42)
print("\ncross-validation:", report["samples"], "samples,",
      report["mismatches"], "mismatches in", report["elapsed_s"], "s")

# %% For |T| >= 4 equality of the two matroids is open; random search for a
# counterexample re-verifies any hit with fresh exact-arithmetic seeds
# before reporting it.
search = conjecture_search(n_max=6, t_size=4, budget=150, seed=42)
print("conjecture search:", search["budget"], "instances,",
      len(search["candidates"]), "verified candidates")

# %% In three dimensions the planar story breaks: for K_{5,5} with a
# coincident pair across the bipartition, both surgery graphs are rigid yet
# the coincident framework is flexible (nine points always sit on a quadric).
k55 = fx["k55"]
uv = tuple(sorted(k55.T))
rep = generic_rank(k55.graph, k55.T, d=3, trials=3, seed=2)
rep_minus = generic_rank(k55.graph.delete_edges([uv]), {0}, d=3, trials=3, seed=2)
rep_contr = generic_rank(k55.graph.contract(k55.T), {0}, d=3, trials=3, seed=2)
print("\nK_{5,5} in 3D: coincident rank", rep.rank, "of", rep.target,
      "(flexible);  minus-edge rank", rep_minus.rank,
      "(rigid);  contracted rank", rep_contr.rank, "(rigid)")
