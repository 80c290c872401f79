"""Top-level decision procedures, cross-validation harnesses and fixtures.

The combinatorial characterization of coincident rigidity (deletion and
contraction checks via the pebble game) runs against the algebraic one
(exact rank of sampled coincident realizations) on bundled fixtures and on
random instances; disagreements for coincidence sets of size at most three
are genuine correctness failures and fail the harness.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import henneberg_random
from .graph import Graph, complete_bipartite, graph_to_json
from .linalg import RankReport, Realization, generic_rank, rigidity_target
from .matroid import greedy_rank, mt_oracle, rt_oracle
from .pebble import pebble_rank_23
from .sparsity import _check_cap, is_strongly_T_sparse, subsets_of_two_or_more


@dataclass
class CoincidenceVerdict:
    """Coincident-rigidity verdicts for a graph and a coincidence set T.

    ``failing_S`` is None when nothing failed, the empty set when the
    T-edge-free graph itself is flexible, and the offending S when some
    contraction check failed.
    """

    graph: Graph
    T: frozenset[int]
    combinatorial: bool | None = None
    algebraic: bool | None = None
    failing_S: frozenset[int] | None = None
    reports: tuple[RankReport, ...] = ()

    def to_dict(self) -> dict:
        labels = self.graph.labels
        out = {
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.edge_list()],
            "T": sorted(self.T),
            "combinatorial": self.combinatorial,
            "algebraic": self.algebraic,
            "failing_S": (sorted(self.failing_S)
                          if self.failing_S is not None else None),
            "reports": [r.to_dict() for r in self.reports],
        }
        if labels != tuple(str(i) for i in range(self.graph.n)):
            out["labels"] = list(labels)
        return out


def coincident_rigid_combinatorial(g: Graph, T) -> CoincidenceVerdict:
    """Deletion/contraction characterization of coincident rigidity.

    With G' the graph minus its T-internal edges, the verdict is True iff
    G' and every contraction G'/S (S inside T, |S| >= 2) are rigid in the
    plane; rigidity is decided by the pebble game.
    """
    ts = frozenset(T)
    if not 2 <= len(ts) <= 3:
        raise ValueError("the characterization applies to |T| in {2, 3}")
    gp = g.minus_T_edges(ts)
    if pebble_rank_23(gp) != rigidity_target(gp.n, 2):
        return CoincidenceVerdict(g, ts, combinatorial=False,
                                  failing_S=frozenset())
    for s in subsets_of_two_or_more(ts):
        gc = gp.contract(s)
        if pebble_rank_23(gc) != rigidity_target(gc.n, 2):
            return CoincidenceVerdict(g, ts, combinatorial=False, failing_S=s)
    return CoincidenceVerdict(g, ts, combinatorial=True)


def check_coincident_rigidity(g: Graph, T, d: int = 2, trials: int = 3,
                              seed: int = 0) -> CoincidenceVerdict:
    """Both verdicts side by side (combinatorial one only in the plane).

    The algebraic verdict compares the rank of generic T-coincident
    realizations with the rigidity target.
    """
    ts = frozenset(T)
    rep = generic_rank(g, ts, d, trials=trials, seed=seed)
    verdict = CoincidenceVerdict(g, ts, algebraic=rep.rigid, reports=(rep,))
    if d == 2 and 2 <= len(ts) <= 3:
        comb_v = coincident_rigid_combinatorial(g, ts)
        verdict.combinatorial = comb_v.combinatorial
        verdict.failing_S = comb_v.failing_S
    return verdict


# -- random instances ----------------------------------------------------


def _largest_n(n_max: int, t_size: int) -> int:
    """The most vertices ``random_instance(rng, n_max, t_size)`` can draw."""
    return max(n_max, t_size + 1, 4)


def random_instance(rng: random.Random, n_max: int, t_size: int) -> tuple[Graph, frozenset[int]]:
    """Random near-threshold graph with a random coincidence set.

    Half the draws are Erdos-Renyi style with 2n-3 plus noise edges, half
    are Henneberg graphs with a few extra edges: both concentrate near the
    rigidity threshold where the characterizations bite.
    """
    n = rng.randint(max(t_size + 1, 4), _largest_n(n_max, t_size))
    if rng.random() < 0.5:
        pairs = list(combinations(range(n), 2))
        m = max(1, min(len(pairs), 2 * n - 3 + rng.randint(-3, 3)))
        g = Graph(n, rng.sample(pairs, m))
    else:
        g = henneberg_random(n, rng.getrandbits(32))
        extra = [p for p in combinations(range(n), 2) if p not in g.edges]
        rng.shuffle(extra)
        g = g.add_edges(extra[:rng.randint(0, 2)])
    T = frozenset(rng.sample(range(n), t_size))
    return g, T


def cross_validate(n_max: int, t_sizes: list[int], samples: int,
                   seed: int) -> dict:
    """Compare combinatorial and algebraic oracle verdicts on random instances.

    For each sample the strong-sparsity verdict on the full edge set must
    match the exact-rank verdict, and the greedy ranks of both matroids must
    agree.  Mismatches are collected (and are theorem violations for |T| at
    most three).  Sizes the enumeration cap refuses are refused up front.
    """
    for t_size in t_sizes:
        _check_cap(_largest_n(n_max, t_size))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    checked = 0
    by_t: dict[int, int] = {}
    mismatches = []
    for i in range(samples):
        t_size = t_sizes[i % len(t_sizes)]
        g, T = random_instance(rng, n_max, t_size)
        mt = mt_oracle(g, T)
        rt = rt_oracle(g, T, d=2, seed=rng.getrandbits(31))
        mt_rank = greedy_rank(mt).rank
        rt_rank = greedy_rank(rt).rank
        # a fresh checker fed the sorted edges accepts them all iff the greedy
        # run over the same edges keeps every one
        mt_ind = mt_rank == len(g.edges)
        rt_ind = rt_rank == len(g.edges)
        checked += 1
        by_t[t_size] = by_t.get(t_size, 0) + 1
        if mt_ind != rt_ind or mt_rank != rt_rank:
            mismatches.append({
                "graph": graph_to_json(g, T),
                "T": sorted(T),
                "mt_independent": mt_ind, "rt_independent": rt_ind,
                "mt_rank": mt_rank, "rt_rank": rt_rank,
                "conjectural": t_size >= 4,
            })
    return {
        "samples": checked,
        "by_t_size": by_t,
        "mismatches": len(mismatches),
        "mismatch_details": mismatches,
        "conjectural": any(t >= 4 for t in t_sizes),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def conjecture_search(n_max: int, t_size: int, budget: int, seed: int) -> dict:
    """Random search for a strong-sparsity/exact-rank disagreement, |T| >= 4.

    Any hit is re-verified with ten fresh exact-arithmetic seeds before it
    is reported; an empty candidate list means no counterexample was found
    within the budget.
    """
    if t_size < 4:
        raise ValueError("sizes up to three are settled; search needs |T| >= 4")
    _check_cap(_largest_n(n_max, t_size))
    rng = random.Random(seed)
    t0 = time.perf_counter()
    candidates = []
    for _ in range(budget):
        g, T = random_instance(rng, n_max, t_size)
        violation = is_strongly_T_sparse(g, T)
        mt_ind = violation is None
        rep = generic_rank(g, T, 2, trials=3, seed=rng.getrandbits(31))
        rt_ind = rep.independent
        if mt_ind == rt_ind:
            continue
        # quarantine: only exact re-verified disagreements are reported
        fresh = [generic_rank(g, T, 2, trials=1, seed=rng.getrandbits(31))
                 for _ in range(10)]
        best = max(r.rank for r in fresh)
        rt_ind_verified = best == len(g.edges)
        if mt_ind == rt_ind_verified:
            continue
        candidates.append({
            "graph": graph_to_json(g, T),
            "T": sorted(T),
            "strongly_T_sparse": mt_ind,
            "violation": violation.to_dict() if violation else None,
            "verified_rank": max(best, rep.rank),
            "edge_count": len(g.edges),
        })
    return {
        "t_size": t_size,
        "budget": budget,
        "candidates": candidates,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


# -- bundled fixtures ------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    T: frozenset[int]
    realization: Realization | None = None


_FIG3_LABELS = ("u", "v", "w", "a", "b", "c", "d", "e", "f")
# outer six-cycle u-a-v-b-w-c and the inner triangle d-e-f are shared
_FIG3_OUTER = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
_FIG3_INNER = [(6, 7), (6, 8), (7, 8)]
# per-variant wiring of the inner triangle to the cycle
_FIG3_CONNECTORS = [
    [(6, 0), (6, 3), (7, 1), (7, 4), (8, 2), (8, 5)],
    [(6, 0), (6, 4), (7, 1), (7, 3), (8, 2), (8, 5)],
    [(6, 0), (6, 4), (7, 1), (7, 5), (8, 2), (8, 3)],
    [(6, 0), (7, 1), (7, 3), (7, 4), (8, 2), (8, 5)],
    [(6, 0), (7, 1), (7, 3), (7, 5), (8, 2), (8, 4)],
    [(6, 0), (6, 4), (7, 1), (7, 3), (7, 5), (8, 2)],
    [(6, 0), (7, 1), (7, 3), (7, 4), (7, 5), (8, 2)],
]

_FIG3_POINTS = {
    0: (0, 0), 1: (0, 0), 2: (0, 0),   # u, v, w coincide
    3: (0, 1), 4: (1, 0), 5: (2, 3),   # a, b, c
    6: (1, 3), 7: (1, 4), 8: (2, 2),   # d, e, f
}


def fixtures() -> dict[str, Fixture]:
    """The seven base-case graphs (first with its printed realization),
    the deletion/contraction counterexample, and K_{5,5} with a
    cross-bipartition coincident pair."""
    out: dict[str, Fixture] = {}
    for i, conn in enumerate(_FIG3_CONNECTORS, start=1):
        g = Graph(9, _FIG3_OUTER + _FIG3_INNER + conn, _FIG3_LABELS)
        realization = None
        if i == 1:
            realization = Realization(2, {
                v: (Fraction(x), Fraction(y)) for v, (x, y) in _FIG3_POINTS.items()
            })
        out[f"fig3-{i}"] = Fixture(f"fig3-{i}", g, frozenset({0, 1, 2}), realization)
    fig4 = Graph(8, [(4, 3), (4, 0), (4, 1), (5, 3), (5, 0), (5, 1),
                     (6, 3), (6, 0), (6, 1), (7, 4), (7, 5), (2, 7), (2, 6)],
                 ("u", "v", "w", "a", "b", "c", "d", "e"))
    out["fig4"] = Fixture("fig4", fig4, frozenset({0, 1, 2}))
    out["k55"] = Fixture("k55", complete_bipartite(5, 5), frozenset({0, 5}))
    return out
