"""Matroid rank machinery over independence oracles.

Three oracles share one interface: the combinatorial matroid whose
independent sets are the strongly T-sparse edge sets, the algebraic
T-coincident rigidity matroid decided by exact rank of sampled
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
from .sparsity import (AugmentedFamily, CompatibleFamily, DEFAULT_CAP,
                       StrongSparsityChecker, _mask_of, min_thin_cover,
                       nonempty_subsets_canonical, partial_partitions,
                       val_family)


def _canon_edges(edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted((e if e[0] < e[1] else (e[1], e[0])) for e in edges)


class IndependenceOracle:
    """An edge-subset independence test over a fixed ground set."""

    def __init__(self, name: str, ground: Iterable[tuple[int, int]],
                 test: Callable[[frozenset], bool],
                 incremental: Callable[[], "object"] | None = None,
                 conjectural: bool = False):
        self.name = name
        self.ground = tuple(_canon_edges(ground))
        self._test = test
        self._incremental = incremental
        self.conjectural = conjectural

    def test(self, edges: Iterable[tuple[int, int]]) -> bool:
        fs = frozenset(_canon_edges(edges))
        for e in fs:
            if e not in self.ground:
                raise ValueError(f"edge {e} is not in the oracle's ground set")
        return self._test(fs)

    def incremental(self):
        """A fresh stateful checker with try_add(a, b), or None."""
        return self._incremental() if self._incremental else None


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

    def test(fs):
        return StrongSparsityChecker(n, ts, cap).accepts_all(sorted(fs))

    return IndependenceOracle("mt", g.edges, test,
                              incremental=lambda: StrongSparsityChecker(n, ts, cap),
                              conjectural=len(ts) >= 4)


def laman_oracle(g: Graph) -> IndependenceOracle:
    """Independence in the plain 2-dimensional rigidity matroid."""
    n = g.n

    def test(fs):
        game = PebbleGame(n)
        return all(game.try_insert(a, b) for a, b in sorted(fs))

    return IndependenceOracle("laman", g.edges, test,
                              incremental=lambda: _LamanChecker(n))


class _LamanChecker:
    def __init__(self, n):
        self._game = PebbleGame(n)

    def try_add(self, a, b) -> bool:
        return self._game.try_insert(a, b)


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

    def test(fs):
        checker = _RtChecker(row_maps)
        return all(checker.try_add(a, b) for a, b in sorted(fs))

    return IndependenceOracle("rt", g.edges, test,
                              incremental=lambda: _RtChecker(row_maps))


# -- rank computations ---------------------------------------------------


def greedy_rank(oracle: IndependenceOracle,
                eprime: Iterable[tuple[int, int]] | None = None) -> MatroidRankCertificate:
    """Greedy base of E' in canonical edge order; its size is the rank."""
    edges = _canon_edges(eprime) if eprime is not None else list(oracle.ground)
    for e in edges:
        if e not in oracle.ground:
            raise ValueError(f"edge {e} is not in the oracle's ground set")
    checker = oracle.incremental()
    base: list[tuple[int, int]] = []
    if checker is not None:
        for a, b in edges:
            if checker.try_add(a, b):
                base.append((a, b))
    else:
        for e in edges:
            if oracle.test(base + [e]):
                base.append(e)
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
    best_val: int | None = None
    best_fam: AugmentedFamily | None = None
    for s in nonempty_subsets_canonical(ts, min_size=2):
        s_mask = _mask_of(s)
        others = tuple(v for v in range(g.n) if v not in s)
        for blocks in partial_partitions(others):
            if blocks:
                member_masks = [s_mask | _mask_of(b) for b in blocks]
                base = val_family(CompatibleFamily(s, tuple(s | b for b in blocks)))
                union_h = 0
                for m in member_masks:
                    union_h |= m
            else:
                member_masks = []
                base = 0
                union_h = 0
            if best_val is not None and base >= best_val:
                continue
            uncovered = [e for e in targets
                         if not any(e & m == e for m in member_masks)]
            res = min_thin_cover(g.n, uncovered, forbidden=union_h,
                                 cap_val=None if best_val is None else best_val - base)
            if res is None:
                continue
            cval, xmasks = res
            total = base + cval
            if best_val is None or total < best_val:
                best_val = total
                fam = (CompatibleFamily(s, tuple(s | b for b in blocks))
                       if blocks else None)
                xsets = tuple(frozenset(v for v in range(g.n) if x >> v & 1)
                              for x in xmasks)
                best_fam = AugmentedFamily(s, fam, xsets)
    assert best_val is not None  # the empty family covers the empty target set
    return best_val, best_fam


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
