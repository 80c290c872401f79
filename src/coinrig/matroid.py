"""Matroid rank machinery over independence oracles.

Three oracles share one shape, an incremental checker: the combinatorial
matroid whose independent sets are the strongly T-sparse edge sets, the
algebraic T-coincident rigidity matroid decided by exact rank of sampled
realizations, and the plain 2-dimensional rigidity matroid via the pebble
game.  Greedy base construction, the 1-thin augmented-cover minimum that
certifies the combinatorial rank, and small-circuit enumeration sit on top.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterable

from .graph import Graph
from .linalg import (CoincidenceSpec, ModpEchelon, _sparse_rows, _trial_seed,
                     sample_T_coincident)
from .pebble import PebbleGame
from .sparsity import (_COVER_LB, AugmentedFamily, CompatibleFamily,
                       DEFAULT_CAP, InvariantError, StrongSparsityChecker,
                       _bits, _mask_of, min_thin_cover,
                       nonempty_subsets_canonical)


def _canon_edges(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted((e if e[0] < e[1] else (e[1], e[0])) for e in edges)


class IndependenceOracle:
    """An edge-subset independence test over a fixed ground set.

    The oracle is defined by its incremental checker: ``new_checker()``
    returns a fresh ``add(a, b) -> bool`` that accepts an edge iff the
    edges accepted so far plus this one stay independent, and leaves its
    state unchanged otherwise.  A set is independent iff a fresh checker
    accepts all of its edges.
    """

    def __init__(self, name: str, ground: Iterable[tuple[int, int]],
                 new_checker: Callable[[], Callable[[int, int], bool]],
                 conjectural: bool = False):
        self.name = name
        self.ground = tuple(_canon_edges(ground))
        self.new_checker = new_checker
        self.conjectural = conjectural

    def test(self, edges: Iterable[tuple[int, int]]) -> bool:
        fs = frozenset(_canon_edges(edges))
        for e in fs:
            if e not in self.ground:
                raise ValueError(f"edge {e} is not in the oracle's ground set")
        add = self.new_checker()
        return all(add(a, b) for a, b in sorted(fs))

    def incremental(self) -> Callable[[int, int], bool]:
        """A fresh checker ``add(a, b) -> bool``."""
        return self.new_checker()


@dataclass
class MatroidRankCertificate:
    rank: int
    base: tuple[tuple[int, int], ...]
    dual: AugmentedFamily | None = None
    conjectural: bool = False

    def to_dict(self, labels=None) -> dict:
        def name(v):
            return labels[v] if labels else v
        out: dict = {"rank": self.rank,
                     "base": [[name(a), name(b)] for a, b in self.base],
                     "conjectural": self.conjectural}
        if self.dual is not None:
            out["dual"] = {
                "S": [name(v) for v in sorted(self.dual.S)],
                "family": ([[name(v) for v in sorted(H)]
                            for H in self.dual.family.members]
                           if self.dual.family else []),
                "xsets": [[name(v) for v in sorted(X)] for X in self.dual.xsets],
            }
        return out


# -- oracle constructors -----------------------------------------------


def mt_oracle(g: Graph, T: Iterable[int], cap: int = DEFAULT_CAP) -> IndependenceOracle:
    """Independence = the subgraph is strongly T-sparse."""
    ts = frozenset(T)
    if not ts:
        raise ValueError("T must be nonempty")
    n = g.n
    return IndependenceOracle("mt", g.edges,
                              lambda: StrongSparsityChecker(n, ts, cap).try_add,
                              conjectural=len(ts) >= 4)


def laman_oracle(g: Graph) -> IndependenceOracle:
    """Independence in the plain 2-dimensional rigidity matroid."""
    n = g.n
    return IndependenceOracle("laman", g.edges, lambda: PebbleGame(n).try_insert)


class _RtChecker:
    """Row-independence under several sampled realizations.

    An echelon stays a valid witness while it has accepted every edge
    accepted so far; an edge is accepted iff some valid witness accepts it.
    Whatever is accepted is therefore row-independent in at least one
    realization, so independence verdicts are certified.  A dependence
    verdict needs every valid witness to degenerate at once, which the
    independent samples make measure-tiny (this is the resample-on-rank-
    shortfall protection).
    """

    def __init__(self, row_maps):
        self.row_maps = row_maps
        self.echelons = [ModpEchelon() for _ in row_maps]
        self.valid = [True] * len(row_maps)

    def try_add(self, a, b) -> bool:
        e = (a, b) if a < b else (b, a)
        results = {}
        for j, (rm, ech) in enumerate(zip(self.row_maps, self.echelons)):
            if self.valid[j]:
                results[j] = ech.try_add(rm[e])
        if not any(results.values()):
            return False  # no row added anywhere: state unchanged
        for j, ok in results.items():
            if not ok:
                self.valid[j] = False
        return True


def rt_oracle(g: Graph, T: Iterable[int], d: int = 2, trials: int = 3,
              seed: int = 0) -> IndependenceOracle:
    """Independence in the algebraic T-coincident rigidity matroid.

    One realization per trial is sampled up front and shared by all queries;
    rows are tested by sparse elimination over GF(2^61 - 1), so accepted
    rows are independent over the rationals too.
    """
    spec = CoincidenceSpec.of(T)
    row_maps = [_sparse_rows(g, sample_T_coincident(g, spec, d, _trial_seed(seed, t)))
                for t in range(trials)]
    return IndependenceOracle("rt", g.edges, lambda: _RtChecker(row_maps).try_add)


# -- rank computations ---------------------------------------------------


def greedy_rank(oracle: IndependenceOracle,
                eprime: Iterable[tuple[int, int]] | None = None) -> MatroidRankCertificate:
    """Greedy base of E' in canonical edge order; its size is the rank."""
    edges = _canon_edges(eprime) if eprime is not None else list(oracle.ground)
    for e in edges:
        if e not in oracle.ground:
            raise ValueError(f"edge {e} is not in the oracle's ground set")
    add = oracle.incremental()
    base = [(a, b) for a, b in edges if add(a, b)]
    return MatroidRankCertificate(rank=len(base), base=tuple(base),
                                  conjectural=oracle.conjectural)


def mt_rank_cover_min(g: Graph, eprime: Iterable[tuple[int, int]] | None,
                      T: Iterable[int], cap: int = 10) -> tuple[int, AugmentedFamily]:
    """Rank of E' in the strong-sparsity matroid via the dual cover minimum.

    Minimizes val_S over all S inside T with |S| >= 2 and all 1-thin
    augmented S-compatible families covering E' minus the T-internal edges.
    Families with an empty compatible part are admissible under every S.
    Returns the minimum and an attaining family; when E' lies inside T,
    that is the empty family of value 0.

    For each S (canonical order) one depth-first search walks the block
    partitions of the vertices outside S in the leaf order of
    ``partial_partitions``: at each vertex it first leaves the vertex out,
    then puts it in a block with ``extra`` taken from ``combinations(rest,
    r)`` for r = 0, 1, ...  The search carries the blocks, their union, the
    family value and the edges no member covers; each leaf asks
    ``min_thin_cover`` for the cheapest cover of those edges.  Only a
    strictly smaller total replaces the incumbent, so the result is the
    first (S, blocks) in that order to reach the minimum.  Three prunes
    skip work whose outcome cannot change it:

    - a subtree whose family value already reaches the incumbent: every
      block adds 2|B| - 1 >= 1 and a cover costs >= 0;
    - the remaining sizes r at a vertex once a block of that size would
      reach the incumbent, since blocks cost more as they grow;
    - a leaf whose value plus the least cost of covering its edges
      (``_COVER_LB``) reaches the incumbent, where ``min_thin_cover``
      would find nothing cheaper than its cap.
    """
    if g.n > cap:
        raise ValueError(f"graph has {g.n} vertices, enumeration cap is {cap}")
    ts = frozenset(T)
    if len(ts) < 2:
        raise ValueError("the cover formula needs |T| >= 2")
    if len(ts) > 3:
        warnings.warn("cover minimum with |T| >= 4 is conjectural", stacklevel=2)
    edges = _canon_edges(eprime) if eprime is not None else g.edge_list()
    for e in edges:
        if e not in g.edges:
            raise ValueError(f"edge {e} is not an edge of the graph")
    targets = [(1 << a) | (1 << b) for a, b in edges
               if not (a in ts and b in ts)]
    subsets = nonempty_subsets_canonical(ts, min_size=2)
    # the first leaf: no family, E' covered by sets alone (pairs always do)
    res = min_thin_cover(g.n, targets)
    if res is None:
        raise InvariantError("no 1-thin cover of E' by pairs")
    best_val, best_at = res[0], (subsets[0], (), res[1])
    lb_top = len(_COVER_LB) - 1

    for s in subsets:
        s_mask = _mask_of(s)
        s_cost = 2 * len(s) - 2  # the family's 2(|S| - 1), paid with its first block

        def dfs(elems, blocks, union_h, base, uncovered):
            nonlocal best_val, best_at
            if base >= best_val:
                return
            if not elems:
                if base + _COVER_LB[min(len(uncovered), lb_top)] >= best_val:
                    return
                res = min_thin_cover(g.n, uncovered, forbidden=union_h,
                                     cap_val=best_val - base)
                if res is not None:
                    best_val = base + res[0]
                    best_at = (s, blocks, res[1])
                return
            first, rest = elems[0], elems[1:]
            dfs(rest, blocks, union_h, base, uncovered)
            first_mask = s_mask | 1 << first
            first_base = base + (0 if blocks else s_cost) + 1
            for r in range(len(rest) + 1):
                block_base = first_base + 2 * r
                if block_base >= best_val:
                    break
                for extra in combinations(rest, r):
                    member = first_mask | _mask_of(extra)
                    dfs(tuple(v for v in rest if not member >> v & 1),
                        blocks + (member & ~s_mask,), union_h | member, block_base,
                        [e for e in uncovered if e & member != e])

        dfs(tuple(v for v in range(g.n) if v not in s), (), 0, 0, targets)

    s, blocks, xmasks = best_at
    fam = (CompatibleFamily(s, tuple(s | frozenset(_bits(b)) for b in blocks))
           if blocks else None)
    return best_val, AugmentedFamily(s, fam, tuple(frozenset(_bits(x)) for x in xmasks))


def circuits_upto(oracle: IndependenceOracle, k: int,
                  scan_limit: int = 2_000_000) -> list[frozenset]:
    """All minimal dependent sets of size at most k, by subset scan."""
    m = len(oracle.ground)
    total = sum(comb(m, s) for s in range(1, min(k, m) + 1))
    if total > scan_limit:
        raise ValueError(f"subset scan of {total} sets exceeds the cap {scan_limit}")
    circuits: list[frozenset] = []
    prev_indep: set[frozenset] = {frozenset()}
    for s in range(1, min(k, m) + 1):
        cur_indep: set[frozenset] = set()
        for cand in combinations(oracle.ground, s):
            cs = frozenset(cand)
            if not all(cs - {e} in prev_indep for e in cs):
                continue  # contains a dependent proper subset: not minimal
            if oracle.test(cs):
                cur_indep.add(cs)
            else:
                circuits.append(cs)
        prev_indep = cur_indep
    return circuits
