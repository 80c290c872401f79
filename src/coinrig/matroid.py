"""Matroid rank machinery over independence oracles.

Three oracles share one shape, an incremental checker: the combinatorial
matroid whose independent sets are the strongly T-sparse edge sets, the
algebraic T-coincident rigidity matroid decided by exact rank of sampled
planar realizations, and the plain 2-dimensional rigidity matroid via the
pebble game.  Greedy base construction, the 1-thin augmented-cover minimum
that certifies the combinatorial rank, and small-circuit enumeration sit on
top.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterable

from .graph import Graph, _canon_edge
from .linalg import TRIALS, ModpEchelon, _trial_rows
from .pebble import InvariantError, PebbleGame
from .sparsity import (_COVER_LB, AugmentedFamily, CompatibleFamily,
                       StrongSparsityChecker, _bits, _check_cap, _mask_of,
                       _require, min_thin_cover, subsets_of_two_or_more,
                       val_augmented)

CIRCUIT_SCAN_CAP = 2_000_000


class IndependenceOracle:
    """An edge-subset independence test over a fixed ground set.

    The oracle is defined by its incremental checker: ``incremental()``
    returns a fresh ``add(a, b) -> bool`` that accepts an edge iff the
    edges accepted so far plus this one stay independent, and leaves its
    state unchanged otherwise.  A set is independent iff a fresh checker
    accepts all of its edges.
    """

    def __init__(self, name: str, ground: Iterable[tuple[int, int]],
                 new_checker: Callable[[], Callable[[int, int], bool]],
                 conjectural: bool = False):
        self.name = name
        self.ground = tuple(sorted(_canon_edge(a, b) for a, b in ground))
        self._new_checker = new_checker
        self.conjectural = conjectural

    def test(self, edges: Iterable[tuple[int, int]]) -> bool:
        fs = frozenset(_canon_edge(a, b) for a, b in edges)
        foreign = fs.difference(self.ground)
        if foreign:
            raise ValueError(f"edge {min(foreign)} is not in the oracle's ground set")
        add = self.incremental()
        return all(add(a, b) for a, b in sorted(fs))

    def incremental(self) -> Callable[[int, int], bool]:
        """A fresh checker ``add(a, b) -> bool``."""
        return self._new_checker()


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


def mt_oracle(g: Graph, T: Iterable[int]) -> IndependenceOracle:
    """Independence = the subgraph is strongly T-sparse, decided by pebble
    games on graphs of any size; a T over ``DEFAULT_CAP`` is refused."""
    ts = g._check_T(T)
    n = g.n
    return IndependenceOracle("mt", g.edges,
                              lambda: StrongSparsityChecker(n, ts).try_add,
                              conjectural=len(ts) >= 4)


def laman_oracle(g: Graph) -> IndependenceOracle:
    """Independence in the plain 2-dimensional rigidity matroid."""
    n = g.n
    return IndependenceOracle("laman", g.edges, lambda: PebbleGame(n).try_insert)


class _RtChecker:
    """Row-independence under ``TRIALS`` sampled realizations.

    An echelon stays a valid witness while it has accepted every edge
    accepted so far; an edge is accepted iff some valid witness accepts it.
    Whatever is accepted is therefore row-independent in at least one
    realization, so independence verdicts are certified.  A dependence
    verdict needs every valid witness to degenerate at once, which the
    independent samples make measure-tiny (this is the resample-on-rank-
    shortfall protection).

    The echelons are asked in trial order, and the first that accepts
    settles the edge.  An echelon that is behind first replays the edges
    accepted since it last ran and turns invalid at its first rejection,
    so every verdict is the one that feeding each valid echelon every edge
    would give, while a trial's rows are drawn (``rows(t)``) only when its
    echelon is first asked.

    Two exact certificates reject an edge ab with no trial, or with
    trial 0 alone; the catch-up depends only on the accepted edges, so
    leaving it for later changes no verdict:

    - both endpoints in T: all of T sits at one point in every trial, so
      the row is zero;
    - over the Maxwell count (``game``, a ``PebbleGame`` holding exactly
      the accepted edges): once trial 0 rejects, a game that cannot take ab
      shows a vertex set X spanning more than 2|X| - 3 accepted edges plus
      ab.  Their rows are dependent in every planar realization (mod p
      too), and the accepted rows are independent in every valid trial, so
      every valid trial rejects ab.

    Accepted rows are independent, so the accepted edges are (2,3)-sparse
    and the game must take each of them; ``InvariantError`` if it does not.
    """

    def __init__(self, rows: Callable[[int], dict], T: frozenset[int], n: int):
        self.rows = rows
        self.echelons = [ModpEchelon() for _ in range(TRIALS)]
        self.valid = [True] * TRIALS
        self.done = [0] * TRIALS  # accepted edges each echelon has taken
        self.accepted: list[tuple[int, int]] = []
        self.T = T
        self.game = PebbleGame(n)

    def _catch_up(self, j: int) -> bool:
        """Replay the accepted edges echelon j has not seen; False if invalid."""
        if not self.valid[j]:
            return False
        rm, ech = self.rows(j), self.echelons[j]
        for e in self.accepted[self.done[j]:]:
            if not ech.try_add(rm[e]):
                self.valid[j] = False
                return False
        self.done[j] = len(self.accepted)
        return True

    def try_add(self, a, b) -> bool:
        if a in self.T and b in self.T:
            return False  # a zero row in every trial
        e = (a, b) if a < b else (b, a)
        game = self.game
        for j, ech in enumerate(self.echelons):
            if j == 1 and not game.gather(a, b):
                return False  # over the Maxwell count: dependent in every trial
            if self._catch_up(j) and ech.try_add(self.rows(j)[e]):
                if not game.try_insert(a, b):
                    raise InvariantError(f"rt accepted {e}, but the accepted "
                                         "edges are not (2,3)-sparse")
                self.accepted.append(e)
                self.done[j] += 1
                return True
        return False  # no row added anywhere: state unchanged


def rt_oracle(g: Graph, T: Iterable[int], seed: int = 0) -> IndependenceOracle:
    """Independence in the algebraic T-coincident rigidity matroid of the plane.

    One planar realization per trial (``linalg.TRIALS`` of them) is sampled
    when a checker first asks for it and shared by all later queries; rows
    are tested by sparse elimination over GF(2^61 - 1), so accepted rows
    are independent over the rationals too.  Trial t's rows are those of
    ``generic_rank``'s trial t in d = 2 at the same seed.  Each checker
    rejects an edge inside T, and an edge over the Maxwell count of its own
    pebble game, without asking the later trials (``_RtChecker``).  T is
    checked here, once, before any sample is drawn.
    """
    ts = g._check_T(T)
    row_maps: list[dict | None] = [None] * TRIALS

    def rows(t: int) -> dict:
        if row_maps[t] is None:
            row_maps[t] = _trial_rows(g, ts, 2, seed, t)
        return row_maps[t]

    def new_checker():
        return _RtChecker(rows, ts, g.n).try_add

    return IndependenceOracle("rt", g.edges, new_checker)


# -- rank computations ---------------------------------------------------


def greedy_rank(oracle: IndependenceOracle) -> MatroidRankCertificate:
    """Greedy base of the ground set in canonical edge order; its size is the rank."""
    add = oracle.incremental()
    base = [(a, b) for a, b in oracle.ground if add(a, b)]
    return MatroidRankCertificate(rank=len(base), base=tuple(base),
                                  conjectural=oracle.conjectural)


def mt_rank_cover_min(g: Graph, T: Iterable[int],
                      lower: int = 0) -> tuple[int, AugmentedFamily]:
    """Rank of g's edges in the strong-sparsity matroid via the dual cover minimum.

    Minimizes val_S over all S inside T with |S| >= 2 and all 1-thin
    augmented S-compatible families covering the edges not inside T.
    Families with an empty compatible part are admissible under every S.
    Returns the minimum and an attaining family; when every edge lies
    inside T, that is the empty family of value 0.  The rank of an edge
    subset is the rank of the subgraph it spans.  The family is checked
    before it is returned: it is 1-thin, covers every edge not inside T and
    has the minimum as its value, or ``InvariantError`` is raised.

    Graphs above the enumeration cap (``DEFAULT_CAP`` vertices) are refused.
    For each S (canonical order) one depth-first search walks the partial
    block partitions of the vertices outside S: at each vertex it first
    leaves the vertex out, then puts it in a block with ``extra`` taken
    from ``combinations(rest, r)`` for r = 0, 1, ...  The search carries
    the blocks, their union, the family value and the edges no member
    covers; each leaf asks ``min_thin_cover`` for the cheapest cover of
    those edges.  Only a strictly smaller total replaces the incumbent, so
    the result is the first (S, blocks) in that order to reach the minimum.
    The search skips only subtrees and leaves that cannot reach it:

    - a subtree whose value plus the least cost (``_COVER_LB``) of covering
      its *stuck* edges reaches the incumbent.  An uncovered edge is stuck
      when an endpoint lies outside S and the vertices still to place:
      blocks below hold only those, so every leaf below covers the stuck
      edges by sets, which costs at least ``_COVER_LB[stuck]`` (covering
      more edges never costs less, and ``forbidden`` only removes covers).
      With no stuck edge this is the family value alone (every block adds
      2|B| - 1 >= 1).  At a leaf every uncovered edge is stuck, so a leaf
      where ``min_thin_cover`` could find nothing under its cap is skipped;
    - the remaining sizes r at a vertex once a block of that size would
      reach the incumbent with the stuck edges: blocks cost more as they
      grow, and no block covers a stuck edge;
    - a block B that covers at most 2|B| - 1 uncovered edges.  Leaving its
      vertices out instead, and covering those edges by pairs, costs no
      more and stays 1-thin (the union of the members only shrinks); that
      partition comes earlier in the order, since a vertex is left out
      before it starts a block, so no first minimum uses B;
    - the leaf with no block under every S: it is the first leaf again.

    ``lower`` is a lower bound on the minimum, such as the size of a
    strongly T-sparse edge set (weak duality: every cover's value is at
    least that size).  The search stops once its best total equals
    ``lower``: the S loop, every subtree and the block sizes still to try
    end there.  The witness is the one the full search returns, since
    only a strictly smaller total replaces the incumbent and no total
    falls below a true bound, so the first leaf to reach ``lower`` is the
    first minimum.  Only equality stops the search: a total below
    ``lower`` (a bound that is not one) leaves it running to the true
    minimum, and a minimum above ``lower`` stops nothing early.  The price
    is that the result no longer checks the bound: a bound one too high
    (a greedy base that took one edge too many) goes unnoticed whenever
    a total of that value comes before every smaller one.  The default 0
    runs the whole search.
    """
    ts = g._check_T(T)
    _check_cap(g.n)
    if len(ts) < 2:
        raise ValueError("the cover formula needs |T| >= 2")
    if len(ts) > 3:
        warnings.warn("cover minimum with |T| >= 4 is conjectural", stacklevel=2)
    targets = [(1 << a) | (1 << b) for a, b in g.edge_list()
               if not (a in ts and b in ts)]
    subsets = subsets_of_two_or_more(ts)
    # the first leaf: no family, the edges covered by sets alone (pairs always do)
    res = min_thin_cover(g.n, targets)
    if res is None:
        raise InvariantError("no 1-thin cover of the edges by pairs")
    best_val, best_at = res[0], (subsets[0], (), res[1])

    for s in subsets:
        if best_val == lower:
            break
        s_mask = _mask_of(s)
        s_cost = 2 * len(s) - 2  # the family's 2(|S| - 1), paid with its first block

        def dfs(elems, out, blocks, union_h, base, uncovered):
            nonlocal best_val, best_at
            # uncovered edges with an endpoint in ``out`` (outside S and
            # elems) stay uncovered by every block below: a leaf pays for them
            stuck_lb = _COVER_LB[len([e for e in uncovered if e & out])]
            if base + stuck_lb >= best_val or best_val == lower:
                return
            if not elems:
                if not blocks:
                    return  # the first leaf again, under another S
                res = min_thin_cover(g.n, uncovered, forbidden=union_h,
                                     cap_val=best_val - base)
                if res is not None:
                    best_val = base + res[0]
                    best_at = (s, blocks, res[1])
                return
            first, rest = elems[0], elems[1:]
            dfs(rest, out | 1 << first, blocks, union_h, base, uncovered)
            first_base = base + (0 if blocks else s_cost) + 1
            for r in range(len(rest) + 1):
                # a block covers no stuck edge, so its child keeps them all
                block_base = first_base + 2 * r
                if block_base + stuck_lb >= best_val or best_val == lower:
                    break
                for extra in combinations(rest, r):
                    block = 1 << first | _mask_of(extra)
                    member = s_mask | block
                    left = [e for e in uncovered if e & member != e]
                    if len(uncovered) - len(left) <= 2 * r + 1:
                        continue  # no dearer than pairs: see the docstring
                    dfs(tuple(v for v in rest if not block >> v & 1), out | block,
                        blocks + (block,), union_h | member, block_base, left)

        dfs(tuple(v for v in range(g.n) if v not in s), 0, (), 0, 0, targets)

    s, blocks, xmasks = best_at
    fam = (CompatibleFamily(s, tuple(s | frozenset(_bits(b)) for b in blocks))
           if blocks else None)
    dual = AugmentedFamily(s, fam, tuple(frozenset(_bits(x)) for x in xmasks))
    # the search counts on bitmasks; the certificate is rechecked on its sets
    _require(dual.is_one_thin(), "the cover minimum's family is not 1-thin")
    _require(dual.covers().issuperset(
        (a, b) for a, b in g.edges if not (a in ts and b in ts)),
        "the cover minimum's family misses an edge not inside T")
    value = val_augmented(dual)
    _require(value == best_val,
             f"the cover minimum's family has value {value}, not {best_val}")
    return best_val, dual


def circuits_upto(oracle: IndependenceOracle, k: int) -> list[frozenset]:
    """All minimal dependent sets of size at most k, by subset scan.

    Scans of more than ``CIRCUIT_SCAN_CAP`` edge subsets are refused.
    """
    m = len(oracle.ground)
    total = sum(comb(m, s) for s in range(1, min(k, m) + 1))
    if total > CIRCUIT_SCAN_CAP:
        raise ValueError(f"subset scan of {total} sets exceeds the cap {CIRCUIT_SCAN_CAP}")
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
