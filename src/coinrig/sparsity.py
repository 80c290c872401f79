"""Sparsity counts and certificates for coincident-vertex rigidity.

Capacities val_S of vertex sets, S-compatible and augmented families with
their values, (strongly) T-sparse decisions with explicit violation
witnesses, and the 1-thin cover minimum that realizes the rank function of
the 2-dimensional rigidity matroid.

Family checks only enumerate families whose members pairwise intersect
exactly in S: merging an overlapping pair never shrinks coverage and
strictly lowers the family value, so any violating family reduces to one of
this shape.  Such families are exactly the collections of disjoint nonempty
"blocks" of V minus S, with member H_i = S union B_i.

``is_S_sparse`` and ``_broken_S``, the one decision behind every
whole-graph strong-sparsity verdict, decide by (2,3) pebble games, the
proof of which is in the ``StrongSparsityChecker`` docstring: one game on
G for the set capacities (``pebble.pebble_basis_23`` with T empty, which
proves each rejection as it makes it), a count of the edges inside S, and
per S a copy of G's final game on G/S (``PebbleGame.contracted``), with S
merged into min S and parallel edges kept, whose nullity is the heaviest
family weight.  The copy already holds every edge that avoids S, so it
plays only the edges at S.  A verdict costs one game and O(2^|T|)
copies.  Only a violation runs the bitmask engine, to name its canonical
witness, and one walk, ``_walk``, serves both kinds: it visits vertex sets
in witness order, counting induced edges as it goes.  ``_set_violation``
stops it at the first set over its capacity; ``_family_violation`` walks
the blocks of V minus S, keeps those of positive weight, and searches them
for the first family over its capacity.

Witness order: vertex sets compare by their sorted vertex tuples
(``_bits``), lexicographically, and family members are listed in that
order.  The canonical set witness is the first violating set in it; the
canonical family is the first hit of the block search, which tries blocks
in it.

Every enumeration (the witness walks and the 1-thin cover search here,
the cover minimum in ``matroid``, the 2^|T| subsets of T) is bounded by
one cap, ``DEFAULT_CAP``, checked by ``_check_cap`` where it runs.  So the
decisions answer at any size, and only a violation above the cap is
refused, for want of the walk that names its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graph import Graph
from .pebble import InvariantError, PebbleGame, pebble_basis_23

DEFAULT_CAP = 12


def _require(ok: bool, what: str):
    if not ok:
        raise InvariantError(what)


# -- values ------------------------------------------------------------


def val_set(X: Iterable[int], S: Iterable[int]) -> int:
    """Capacity of a vertex set: 2|X|-3, but 0 for sets inside S."""
    xs, ss = frozenset(X), frozenset(S)
    if len(xs) < 2:
        raise ValueError("val is only defined for sets with at least two vertices")
    return 0 if xs <= ss else 2 * len(xs) - 3


def _canon_members(members) -> tuple[frozenset[int], ...]:
    return tuple(sorted((frozenset(m) for m in members),
                        key=lambda m: tuple(sorted(m))))


@dataclass(frozen=True)
class CompatibleFamily:
    """Nonempty family of vertex sets, each properly containing S."""

    S: frozenset[int]
    members: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        object.__setattr__(self, "members", _canon_members(self.members))
        if not self.S:
            raise ValueError("S must be nonempty")
        if not self.members:
            raise ValueError("a compatible family must have at least one member")
        for H in self.members:
            if not (self.S < H):
                raise ValueError(f"member {sorted(H)} is not a proper superset of S")

    def union(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for H in self.members:
            out |= H
        return out


def val_family(fam: CompatibleFamily) -> int:
    """Sum of (2|H_i \\ S| - 1) plus 2(|S| - 1)."""
    return (sum(2 * len(H - fam.S) - 1 for H in fam.members)
            + 2 * (len(fam.S) - 1))


@dataclass(frozen=True)
class AugmentedFamily:
    """A (possibly absent) S-compatible family plus plain cover sets X_i."""

    S: frozenset[int]
    family: CompatibleFamily | None
    xsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        object.__setattr__(self, "xsets", _canon_members(self.xsets))
        if len(self.S) < 2:
            raise ValueError("augmented families need |S| >= 2")
        if self.family is not None and self.family.S != self.S:
            raise ValueError("family part must be over the same S")
        for X in self.xsets:
            if len(X) < 2:
                raise ValueError(f"cover set {sorted(X)} has fewer than two vertices")

    def is_one_thin(self) -> bool:
        for X, Y in combinations(self.xsets, 2):
            if len(X & Y) > 1:  # (T.1)
                return False
        if self.family is not None:
            for H, K in combinations(self.family.members, 2):
                if H & K != self.S:  # (T.2)
                    return False
            hu = self.family.union()
            for X in self.xsets:
                if len(X & hu) > 1:  # (T.3)
                    return False
        return True

    def covers(self) -> frozenset[tuple[int, int]]:
        sets = list(self.xsets)
        if self.family is not None:
            sets.extend(self.family.members)
        return coverage(sets)


def val_augmented(aug: AugmentedFamily) -> int:
    total = sum(2 * len(X) - 3 for X in aug.xsets)
    if aug.family is not None:
        total += val_family(aug.family)
    return total


def coverage(sets: Iterable[Iterable[int]]) -> frozenset[tuple[int, int]]:
    """All vertex pairs lying inside some member."""
    pairs = set()
    for X in sets:
        for a, b in combinations(sorted(X), 2):
            pairs.add((a, b))
    return frozenset(pairs)


@dataclass(frozen=True)
class SparsityViolation:
    """A set or family whose induced edge count exceeds its capacity."""

    kind: str  # "set" | "family"
    S: frozenset[int]
    witness: frozenset[int] | CompatibleFamily
    lhs: int
    rhs: int

    def to_dict(self, labels=None) -> dict:
        def name(v):
            return labels[v] if labels else v
        if self.kind == "set":
            wit = [name(v) for v in sorted(self.witness)]
        else:
            wit = [[name(v) for v in sorted(H)] for H in self.witness.members]
        return {"kind": self.kind, "S": [name(v) for v in sorted(self.S)],
                "witness": wit, "lhs": self.lhs, "rhs": self.rhs}


# -- bitmask engine ----------------------------------------------------


def _mask_of(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _walk(g: Graph, base: int, free: Sequence[int], c: int, s_mask: int, found):
    """The first set X = base | B over its capacity that ``found`` accepts,
    as (X, i(X)), where B is a nonempty set of the vertices ``free``
    (ascending, none in base); None if found accepts none.

    X's capacity is 2|B| - c, or 0 for X inside s_mask; a set with no edge
    is never over it.  So with base empty and c = 3 it is val_S, and with
    base = S and c = 1 it is the share 2|B| - 1 that a member S|B adds to
    an S-family's capacity, which S|B exceeds iff B weighs w(B) >= 1.  B
    runs through witness order: depth first, each B extended only by
    vertices of free above its largest, so the preorder is the order of
    B's sorted vertex tuples.  i(base) = 0, and the walk carries i(X):
    adding v adds the edges from v into X.  It visits each set at most once
    and builds no table.
    """
    adj, last = g.adjacency_masks(), len(free)

    def step(x: int, lo: int, cap: int, i: int) -> tuple[int, int] | None:
        # the first hit among the sets that extend x by free[lo:]
        for idx in range(lo, last):
            v = free[idx]
            y, j = x | 1 << v, i + (adj[v] & x).bit_count()
            if j and j > (cap if y & ~s_mask else 0) and found(y, j):
                return y, j
            if idx + 1 < last:
                hit = step(y, idx + 1, cap + 2, j)
                if hit:
                    return hit
        return None

    return step(base, 0, 2 - c, 0)


def _set_violation(g: Graph, S: frozenset[int]) -> SparsityViolation:
    """The canonical set violation of S: the first set X, in witness order,
    with i(X) > val_S(X), where ``_walk`` stops.

    Callers search only once a pebble game or an edge inside S shows that
    some set breaks its capacity.
    """
    _check_cap(g.n)
    hit = _walk(g, 0, range(g.n), 3, _mask_of(S), lambda x, i: True)
    _require(hit is not None, "a set was shown to break its capacity, but none does")
    X = _bits(hit[0])
    return SparsityViolation("set", S, frozenset(X), hit[1], val_set(X, S))


def _family_witness(blocks: list[tuple[int, int]],
                    thresh: int) -> list[tuple[int, int]] | None:
    """First disjoint collection of blocks (B, w(B)), given in witness
    order, weighing over thresh; None if there is none.

    Blocks are tried in witness order, so the first hit is the canonical
    witness.  Each level keeps only the later blocks disjoint from those
    chosen, and stops once its remaining weight cannot exceed thresh; both
    prunes cut only subtrees without a hit.
    """

    def dfs(avail: list[tuple[int, int]], acc: int) -> list[tuple[int, int]] | None:
        reach = acc + sum(w for _, w in avail)  # most weight this level can reach
        for idx, (b, w) in enumerate(avail):
            if reach <= thresh:
                return None
            if acc + w > thresh:
                return [(b, w)]
            hit = dfs([bw for bw in avail[idx + 1:] if not bw[0] & b], acc + w)
            if hit is not None:
                return [(b, w)] + hit
            reach -= w
        return None

    return dfs(blocks, 0)


def _family_violation(g: Graph, S: frozenset[int]) -> SparsityViolation:
    """The canonical violating S-family, given i(S) = 0 and that one exists:
    the first family of candidate blocks, in witness order, to break its
    capacity; more than ``DEFAULT_CAP`` vertices are refused.

    A family {S|B_1, ..., S|B_k} of disjoint blocks violates its capacity
    iff the sum of w(B_i) exceeds 2|S| - 2, where w(B) = i(S|B) - 2|B| + 1.
    Blocks with w <= 0 never help, so the candidates are the nonempty
    blocks with w >= 1: the sets S|B that ``_walk`` finds over their share,
    in witness order.
    """
    _check_cap(g.n)
    s_mask = _mask_of(S)
    blocks = []

    def keep(x: int, i: int) -> None:
        b = x ^ s_mask
        blocks.append((b, i - 2 * b.bit_count() + 1))

    _walk(g, s_mask, [v for v in range(g.n) if v not in S], 1, s_mask, keep)
    chosen = _family_witness(blocks, 2 * len(S) - 2)
    _require(chosen is not None, "the nullity of G/S exceeds 2|S| - 2, "
             "but no family of blocks is that heavy")
    fam = CompatibleFamily(S, tuple(S | frozenset(_bits(b)) for b, _ in chosen))
    lhs = sum(w + 2 * b.bit_count() - 1 for b, w in chosen)
    return SparsityViolation("family", S, fam, lhs, val_family(fam))


# -- sparsity decisions ------------------------------------------------


def _check_cap(n: int, what: str = "graph"):
    """Refuse an enumeration over more than ``DEFAULT_CAP`` vertices (the one cap)."""
    if n > DEFAULT_CAP:
        raise ValueError(f"{what} has {n} vertices, enumeration cap is {DEFAULT_CAP}")


def _family_breaks(game: PebbleGame, ss: frozenset[int]) -> bool:
    """Whether the nullity of G/S in the (2,3) count exceeds 2|S| - 2: with
    ``game`` the final (2,3) game of a (2,3)-sparse G, which accepted every
    edge, and no edge inside S, whether some S-family breaks its capacity.
    G/S merges S into min S and keeps parallel edges; its game is
    ``game``'s copy, fed the edges at S (see ``StrongSparsityChecker`` for
    why that is exact)."""
    bound = game.accepted - 2 * len(ss) + 2
    return game.contracted(ss, bound).accepted < bound


def is_S_sparse(g: Graph, S: Iterable[int]) -> SparsityViolation | None:
    """None iff every set and every S-compatible family respects its capacity.

    Otherwise the first violating set, or failing that the first violating
    family, in witness order (module docstring) is returned as the witness.
    Decided by pebble games (see ``StrongSparsityChecker``): some set breaks
    its capacity iff an edge lies inside S or the (2,3) game on G rejects
    an edge (with an edge inside S, no game is played); failing that, some
    family does iff the nullity of G/S in the (2,3) count exceeds
    2|S| - 2, which a copy of G's final game decides, playing only the
    edges at S.  Only naming a violation walks the vertex sets, so a sparse
    graph of any size gets None, and a violation on more than
    ``DEFAULT_CAP`` vertices is refused.
    """
    ss = g._check_T(S, "S")
    if g.induced_edge_count(ss) or (game := pebble_basis_23(g, frozenset())[1]).rejected:
        return _set_violation(g, ss)
    if _family_breaks(game, ss):
        return _family_violation(g, ss)
    return None


def subsets_of_two_or_more(T: Iterable[int]) -> list[frozenset[int]]:
    """The subsets S of T with |S| >= 2, smallest first, then lexicographic;
    a T over ``DEFAULT_CAP`` vertices is refused."""
    ts = sorted(set(T))
    _check_cap(len(ts), what="T")
    return [frozenset(sub) for k in range(2, len(ts) + 1)
            for sub in combinations(ts, k)]


def _broken_S(g: Graph, ts: frozenset[int]) -> frozenset[int] | None:
    """The S of the first violation of strong T-sparsity, for a checked T,
    or None if g is strongly T-sparse; the one decision behind every
    whole-graph verdict.

    A T over ``DEFAULT_CAP`` vertices is refused before any game.  All
    singletons share the (2,3)-count capacities and have no family
    condition (with threshold 0 a block counts iff S|B breaks the
    (2,3)-count), so one (2,3) pebble game stands for them, and its
    violation is reported under S = {min T}.  Once it passes, the only set
    that can break a larger S's capacity is a pair S with an edge, and
    pairs come before larger sets.  Each S with |S| >= 2, smallest first,
    then lexicographic, decides G/S by a copy of G's final game that plays
    only the edges at S (see ``StrongSparsityChecker``): one game and
    O(2^|T|) copies, at any size, since nothing is named.
    """
    subsets = subsets_of_two_or_more(ts)
    game = pebble_basis_23(g, frozenset())[1]
    if game.rejected:
        return frozenset({min(ts)})
    return next((s for s in subsets
                 if g.induced_edge_count(s) or _family_breaks(game, s)), None)


def is_strongly_T_sparse(g: Graph, T: Iterable[int]) -> SparsityViolation | None:
    """None iff g is S-sparse for every nonempty S inside T.

    ``_broken_S`` decides, and the violation of the S it returns is named
    as ``is_S_sparse`` would report it: the first set in witness order for
    S = {min T}, a pair's own edge, or the first violating family.  Only
    naming a set or a family walks the vertex sets, which refuses more
    than ``DEFAULT_CAP`` vertices; so does a T over the cap.
    """
    s = _broken_S(g, g._check_T(T))
    if s is None:
        return None
    if len(s) == 1:
        return _set_violation(g, s)
    inside = g.induced_edge_count(s)
    if inside:
        return SparsityViolation("set", s, s, inside, 0)
    return _family_violation(g, s)


class StrongSparsityChecker:
    """Incremental strong T-sparsity test used by greedy matroid runs.

    ``try_add`` accepts ab iff F, the accepted edges plus ab, stays
    strongly T-sparse, and leaves the accepted edges unchanged otherwise.
    T is a nonempty vertex set (``mt_oracle`` checks it) within the
    enumeration cap (``subsets_of_two_or_more`` refuses a larger one),
    since each S inside T gets a game.  F is strongly T-sparse iff no edge
    of F lies inside T, F is (2,3)-sparse (the other set capacities), and
    for each S with |S| >= 2 no disjoint blocks B_i of V minus S weigh over
    2|S| - 2 in total, where w(B) = i(S|B) - 2|B| + 1 (the family condition
    of the module docstring).

    The family condition bounds a nullity.  Contract S to s = min S,
    keeping parallel edges; no edge of F lies inside S, so none becomes a
    loop.  In the (2,3) count matroid of G/S a nonempty edge set E' has at
    most f(E') = 2|V(E')| - 3 edges; f is nondecreasing and intersecting
    submodular (for E1, E2 sharing an edge, |V1 & V2| >= 2 and f(E1) +
    f(E2) = f(E1 | E2) + 2|V1 & V2| - 3 >= f(E1 | E2) + f(E1 & E2)).  By
    Edmonds' rank formula, the nullity of F in it is the largest total
    excess |F_i| - f(F_i) of disjoint nonempty parts F_i of F.  Only parts
    of positive excess count, and each spans s: one that avoids s is a set
    of edges of G, which F's (2,3)-sparsity holds to f.  Two that share a
    vertex besides s merge into one whose excess beats their sum by
    2|V_i & V_j| - 3 >= 1.  So an optimum takes parts s|B_i with disjoint
    B_i and every edge they span: the i(S|B_i) edges of S|B_i (none lies
    inside S) against f = 2|B_i| - 1, an excess of w(B_i).  The nullity is
    therefore the heaviest family weight, and S's condition says that F's
    nullity on G/S is at most 2|S| - 2.

    The checker holds, per S, a (2,3) ``PebbleGame`` on G/S and the slack
    2|S| - 2 minus the accepted edges' nullity there.  Its first S is
    {min T}, whose G/S is G itself: slack 0 there says F is (2,3)-sparse,
    and is checked before the games that assume it.  ab is accepted iff it
    is not inside T and, for every S, four pebbles gather on its image or
    the slack is positive: O(2^|T|) pebble searches per edge.

    ``is_S_sparse`` and ``_broken_S`` decide the whole of G at once, so
    each of their G/S games starts from G's final game instead:
    ``PebbleGame.contracted`` copies it with S merged into s, then feeds the
    images of the accepted edges at S, and of the game's rejected edges,
    until the copy holds bound = |E| - 2|S| + 2 edges.  This is exact.
    They ask only once G has passed the (2,3) check, so G's game has
    accepted every edge and rejected none: the copy holds every edge that
    avoids S and is fed every edge at S.  Those edges are independent in G/S, and the rank
    of an edge set does not depend on the order of play, so a copy that
    stops short of bound has played every edge at S and holds rank(G/S)
    edges; one that reaches bound shows rank(G/S) >= bound.  The nullity
    |E| - rank(G/S) exceeds 2|S| - 2 exactly when rank(G/S) is below bound.
    The checker's games grow one edge at a time, so it keeps its own.
    """

    def __init__(self, n: int, T: Iterable[int]):
        self.T = frozenset(T)
        subsets = [frozenset({min(self.T)})] + subsets_of_two_or_more(self.T)
        self.games = [(S, min(S), PebbleGame(n)) for S in subsets]
        self.slack = [2 * len(S) - 2 for S in subsets]

    def try_add(self, a: int, b: int) -> bool:
        if a == b:
            raise ValueError("loop edge")
        if a in self.T and b in self.T:
            return False
        images = []  # ab's image in each game that takes it, else None
        for (S, s, game), slack in zip(self.games, self.slack):
            image = (s if a in S else a, s if b in S else b)
            images.append(image if game.gather(*image) else None)
            if not (images[-1] or slack):
                return False
        for i, image in enumerate(images):
            if image:
                self.games[i][2].try_insert(*image)
            else:
                self.slack[i] -= 1
        return True

    def accepts_all(self, edges: Iterable[tuple[int, int]]) -> bool:
        """Feed edges in order; True iff every one is accepted.

        Strong sparsity is closed under subgraphs, so this decides whether
        the whole set is independent regardless of order.
        """
        for a, b in edges:
            if not self.try_add(a, b):
                return False
        return True


# -- 1-thin cover minima -----------------------------------------------


def _coverage_lower_bounds(max_val: int) -> list[int]:
    """lb[m] = least total value any set family covering m edges can have.

    A family of total value V covers at most max sum of C((v_i+3)/2, 2)
    over odd v_i summing to <= V edges; inverting that table bounds covers
    from below.
    """
    maxcov = [0] * (max_val + 1)
    for v in range(1, max_val + 1):
        best = maxcov[v - 1]
        for piece in range(1, v + 1, 2):
            k = (piece + 3) // 2
            best = max(best, k * (k - 1) // 2 + maxcov[v - piece])
        maxcov[v] = best
    lb = [0] * (maxcov[max_val] + 1)
    for m in range(1, len(lb)):
        lb[m] = next(v for v in range(max_val + 1) if maxcov[v] >= m)
    return lb


# indexed by up to C(DEFAULT_CAP, 2) edges: one set of DEFAULT_CAP vertices
_COVER_LB = _coverage_lower_bounds(2 * DEFAULT_CAP - 3)


def min_thin_cover(n: int, edge_masks: list[int], forbidden: int = 0,
                   cap_val: int | None = None):
    """Min total (2|X|-3) over 1-thin set families covering the given edges.

    Sets may meet ``forbidden`` (the union of an augmented family's H-part)
    in at most one vertex.  Returns (value, sets); None when some edge
    cannot be covered at all, or when no cover is strictly cheaper than
    ``cap_val`` (used as a branch-and-bound incumbent by callers).

    The search covers the first uncovered edge e at each node, trying the
    sets x through e biggest first, then by descending mask; only a strictly
    cheaper cover replaces the incumbent, so the result is the first
    minimum in that order.  Candidates are generated under the constraints
    they must meet, and a set that no minimum uses is never generated:

    - x meets ``forbidden`` and every chosen set in at most one vertex;
    - x costs less than the incumbent minus what is already paid, together
      with ``_COVER_LB`` of the edges it leaves uncovered;
    - if |x| >= 3, every vertex of x has two neighbours in x along
      uncovered edges, and x holds at least 2|x| - 3 of them.  Otherwise x
      minus that vertex, with the pair of its one edge if it has one, or
      the pairs of all edges inside x, cover the same edges for less and
      stay 1-thin: no other set meets x in two vertices.

    More than ``DEFAULT_CAP`` vertices are refused (``_check_cap``).
    """
    _check_cap(n)
    targets = []
    for e in edge_masks:
        if (e & forbidden) == e:
            return None  # both endpoints blocked: uncoverable
        if e not in targets:
            targets.append(e)
    if not targets:
        return (0, []) if cap_val is None or cap_val > 0 else None
    # one pair per edge is always a feasible 1-thin cover
    best_val = len(targets)
    best_sets: list[int] | None = list(targets)
    if cap_val is not None and cap_val <= best_val:
        best_val, best_sets = cap_val, None

    state = [best_val, best_sets]
    ends = {e: _bits(e) for e in targets}

    def candidates(uncovered: list[int], chosen: list[int], acc: int):
        e = uncovered[0]
        nb = [0] * n  # neighbours along uncovered edges
        support = 0
        for f in uncovered:
            u, w = ends[f]
            nb[u] |= 1 << w
            nb[w] |= 1 << u
            support |= f
        # a set meeting e may give x no further vertex; any other set at most one
        blocked = e
        limits = []
        for y in (forbidden, *chosen):
            if y & e:
                blocked |= y
            elif y:
                limits.append(y)
        # every vertex of an x with |x| >= 3 lies in the 2-core of the
        # uncovered edges among e and the vertices no set blocks
        pool = e | support & ~blocked
        while True:
            thin = 0
            for v in _bits(pool & ~e):
                if (nb[v] & pool).bit_count() < 2:
                    thin |= 1 << v
            if not thin:
                break
            pool &= ~thin
        a, b = ends[e]
        if (nb[a] & pool).bit_count() < 2 or (nb[b] & pool).bit_count() < 2:
            pool = e  # only the pair e itself
        free = [v for v in range(n - 1, -1, -1) if (pool & ~e) >> v & 1]
        # clash[v]: the free vertices sharing a limiting set with v
        clash = [0] * n
        for y in limits:
            for v in free:
                if y >> v & 1:
                    clash[v] |= y & ~(1 << v)
        # x = e | sub for k = |sub| descending, and within one k the
        # combinations of the descending free vertices give sub, hence x, in
        # descending mask order.  That is the order of every subset of the
        # uncovered support enumerated by descending mask, then sorted
        # stably by size, biggest first: the order the witnesses are pinned to.
        # Every cost stays below the bound state[0] without a check: the
        # first k gives a cost below it, a cover found below a candidate costs
        # at least that candidate's cost, and each later k costs less still.
        m = len(uncovered)
        for k in range(min(len(free), (state[0] - acc - 2) // 2), -1, -1):
            cost = acc + 2 * k + 1
            for extra in combinations(free, k):
                sub = 0
                for v in extra:
                    sub |= 1 << v
                x = e | sub
                da, db = (nb[a] & x).bit_count(), (nb[b] & x).bit_count()
                if k and (da < 2 or db < 2):
                    continue
                inside = da + db  # twice the uncovered edges inside x
                for v in extra:
                    seen = (nb[v] & x).bit_count()
                    if seen < 2 or clash[v] & sub:
                        break
                    inside += seen
                else:
                    if inside < 4 * k + 2:
                        continue  # fewer than 2|x| - 3 edges
                    left = m - inside // 2
                    if cost + _COVER_LB[left] < state[0]:
                        yield x, cost, left

    def dfs(uncovered: list[int], chosen: list[int], acc: int):
        for x, cost, left in candidates(uncovered, chosen, acc):
            if not left:
                state[0], state[1] = cost, chosen + [x]
                continue
            outside = ~x
            chosen.append(x)
            dfs([f for f in uncovered if f & outside], chosen, cost)
            chosen.pop()

    if _COVER_LB[len(targets)] < state[0]:
        dfs(targets, [], 0)
    if state[1] is None:
        return None
    return state[0], state[1]
