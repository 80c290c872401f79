"""Top-level decision procedures, cross-validation harnesses and fixtures.

The combinatorial characterization of coincident rigidity (deletion and
contraction checks via the pebble game) runs against the algebraic one
(exact rank of sampled coincident realizations) on bundled fixtures and on
random instances; disagreements for coincidence sets of size at most three
are genuine correctness failures and fail the harness.  The combinatorial
side reads one full game, on G', ``pebble.pebble_basis_23``; each
contraction G'/S is decided from that game's final orientation, not by a
game of its own.  ``check_coincident_rigidity`` plays that game once and
both sides read it: the algebraic side caps its rank at the basis, which
the game proved by recounting each rejection as it made it, and the
combinatorial side builds every G'/S game as ``sparsity`` builds each
G/S game, by ``PebbleGame.contracted(S, target)``: a copy of the G' game
with S merged into min S, fed only the accepted edges at S and the
rejected edges, up to the rigidity target.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .constructions import henneberg_random
from .graph import Graph, complete_bipartite, graph_to_json
from .linalg import (RankReport, Realization, _generic_rank, generic_rank,
                     rigidity_target)
from .matroid import greedy_rank, mt_oracle, rt_oracle
from .pebble import InvariantError, PebbleGame, pebble_basis_23
from .sparsity import _broken_S, is_strongly_T_sparse, subsets_of_two_or_more


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


def _failing_S(ts: frozenset[int], game: PebbleGame) -> frozenset[int] | None:
    """``coincident_rigid_combinatorial`` from ``game``, the final (2,3)
    game on G', g less its edges inside T, that ``pebble_basis_23(g, ts)``
    played; no game on G' is played here.

    G' is decided by its game's count against the rigidity target 2n - 3.
    Each G'/S, S inside T with |S| >= 2, is decided by the one call that
    builds every contraction game, ``PebbleGame.contracted(S, target)``,
    with target 2n' - 3 and n' = n - |S| + 1: a copy of ``game`` with S
    merged into min(S), on the input's ids, that plays only the accepted
    edges at S and the rejected edges, and leaves ``game`` unchanged.  Its
    count is the R_2 rank of G'/S whenever that rank is short of 2n' - 3.
    """
    if game.accepted != rigidity_target(game.n, 2):
        return frozenset()
    for s in subsets_of_two_or_more(ts):
        target = rigidity_target(game.n - len(s) + 1, 2)
        sub = game.contracted(s, target)
        if sub.accepted > target:  # a (2,3)-sparse set holds at most 2n' - 3
            raise InvariantError(f"the copied state of G'/{sorted(s)} holds "
                                 f"{sub.accepted} edges, above {target}")
        if sub.accepted != target:
            return s
    return None


def coincident_rigid_combinatorial(g: Graph, T) -> frozenset[int] | None:
    """Deletion/contraction characterization of coincident rigidity.

    With G' the graph minus its T-internal edges, g is coincident rigid iff
    G' and every contraction G'/S (S inside T, |S| >= 2) are rigid in the
    plane, by the pebble game.  Returns the failing S: None when g is rigid,
    the empty set when G' is flexible, else the first S whose G'/S is.

    One full game is played, on G' (``pebble_basis_23``); each G'/S is
    decided from its final orientation (``_failing_S``), so it costs the
    accepted edges at the merged vertex and the edges the G' game
    rejected, not a game on all of G'/S.
    """
    ts = g._check_T(T)
    if not 2 <= len(ts) <= 3:
        raise ValueError("the characterization applies to |T| in {2, 3}")
    return _failing_S(ts, pebble_basis_23(g, ts)[1])


def check_coincident_rigidity(g: Graph, T, seed: int = 0) -> CoincidenceVerdict:
    """Both planar verdicts side by side.

    The algebraic verdict compares the rank of generic T-coincident planar
    realizations with the rigidity target 2n - 3.  The combinatorial one,
    the deletion/contraction characterization, is given for 2 <= |T| <= 3
    only, the sizes where it is proved; otherwise it stays None.

    Both read one (2,3) game on G', ``pebble_basis_23``, which recounts
    each edge it rejects as it rejects it: the game that ``generic_rank``
    and ``coincident_rigid_combinatorial`` each play alone.
    """
    ts = g._check_T(T)
    basis, game = pebble_basis_23(g, ts)
    rep = _generic_rank(g, ts, 2, seed, basis)
    combinatorial = failing_S = None
    if 2 <= len(ts) <= 3:
        failing_S = _failing_S(ts, game)
        combinatorial = failing_S is None
    return CoincidenceVerdict(g, ts, combinatorial=combinatorial, algebraic=rep.rigid,
                              failing_S=failing_S, reports=(rep,))


# -- random instances ----------------------------------------------------


def _least_n(n_max: int, t_size: int) -> int:
    """The fewest vertices ``random_instance`` draws for |T| = t_size,
    checked against n_max: a smaller n_max is a ``ValueError``."""
    lo = max(4, t_size + 1)
    if n_max < lo:
        raise ValueError(f"n_max must be at least {lo} for |T| = {t_size}, got {n_max}")
    return lo


def random_instance(rng: random.Random, n_max: int, t_size: int) -> tuple[Graph, frozenset[int]]:
    """Random near-threshold graph with a random coincidence set.

    Half the draws are Erdos-Renyi style with 2n-3 plus noise edges, half
    are Henneberg graphs with a few extra edges: both concentrate near the
    rigidity threshold where the characterizations bite.  The vertex count
    is drawn from ``max(4, t_size + 1)`` to ``n_max``; a smaller ``n_max``
    is a ``ValueError``.
    """
    n = rng.randint(_least_n(n_max, t_size), n_max)
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
    most three).  Graphs of any size run; the greedy ``mt`` checker refuses
    a T over the enumeration cap.  An n_max too small for some listed |T|
    is a ``ValueError`` before any draw, whether or not that size is drawn.
    """
    for t_size in t_sizes:
        _least_n(n_max, t_size)
    rng = random.Random(seed)
    t0 = time.perf_counter()
    by_t: dict[int, int] = {}
    mismatches = []
    for i in range(samples):
        t_size = t_sizes[i % len(t_sizes)]
        g, T = random_instance(rng, n_max, t_size)
        mt_rank = greedy_rank(mt_oracle(g, T)).rank
        rt_rank = greedy_rank(rt_oracle(g, T, seed=rng.getrandbits(31))).rank
        by_t[t_size] = by_t.get(t_size, 0) + 1
        # equal ranks give equal independence verdicts: a fresh checker fed
        # the sorted edges accepts them all iff the greedy run keeps every one
        if mt_rank != rt_rank:
            mismatches.append({
                "graph": graph_to_json(g, T),
                "T": sorted(T),
                "mt_independent": mt_rank == len(g.edges),
                "rt_independent": rt_rank == len(g.edges),
                "mt_rank": mt_rank, "rt_rank": rt_rank,
                "conjectural": t_size >= 4,
            })
    return {
        "samples": samples,
        "by_t_size": by_t,
        "mismatches": len(mismatches),
        "mismatch_details": mismatches,
        "conjectural": any(t >= 4 for t in t_sizes),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }


def conjecture_search(n_max: int, t_size: int, budget: int, seed: int) -> dict:
    """Random search for a strong-sparsity/exact-rank disagreement, |T| >= 4.

    Any hit is re-verified by ten fresh ``generic_rank`` calls, each with
    its own seed and up to ``TRIALS`` samples, before it is reported.  Every
    sampled rank is a certified lower bound, so the verified rank is the
    best of the screening rank and the fresh ones, and the hit stands only
    if that rank still disagrees: a rank of |E| proves the draw independent
    whatever the other samples say.  An empty candidate list means no
    counterexample was found within the budget.  Strong sparsity is decided
    by ``sparsity._broken_S``, the pebble games of ``is_strongly_T_sparse``,
    so graphs of any size run, and a T over ``DEFAULT_CAP`` vertices is
    refused; only a hit whose violation spans more than ``DEFAULT_CAP``
    vertices is refused besides, since naming it walks the vertex sets.
    """
    if t_size < 4:
        raise ValueError("sizes up to three are settled; search needs |T| >= 4")
    _least_n(n_max, t_size)  # even with no draw
    rng = random.Random(seed)
    t0 = time.perf_counter()
    candidates = []
    for _ in range(budget):
        g, T = random_instance(rng, n_max, t_size)
        mt_ind = _broken_S(g, T) is None
        rep = generic_rank(g, T, 2, seed=rng.getrandbits(31))
        if mt_ind == rep.independent:
            continue
        # quarantine: only exact re-verified disagreements are reported
        fresh = (generic_rank(g, T, 2, seed=rng.getrandbits(31)) for _ in range(10))
        verified_rank = max(rep.rank, *(r.rank for r in fresh))
        if mt_ind == (verified_rank == len(g.edges)):
            continue
        candidates.append({
            "graph": graph_to_json(g, T),
            "T": sorted(T),
            "strongly_T_sparse": mt_ind,
            "violation": None if mt_ind else is_strongly_T_sparse(g, T).to_dict(),
            "verified_rank": verified_rank,
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
