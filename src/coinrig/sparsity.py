"""Sparsity counts and certificates for coincident-vertex rigidity.

Capacities val_S of vertex sets, S-compatible and augmented families with
their values, (strongly) T-sparse decisions with explicit violation
witnesses, the family transformation steps, and the 1-thin cover minimum
that realizes the rank function of the 2-dimensional rigidity matroid.

Family checks only enumerate families whose members pairwise intersect
exactly in S: merging an overlapping pair never shrinks coverage and
strictly lowers the family value, so any violating family reduces to one of
this shape.  Such families are exactly the collections of disjoint nonempty
"blocks" of V minus S, with member H_i = S union B_i.

``is_S_sparse`` and ``is_strongly_T_sparse`` decide by pebble games, the
proof of which is in the ``StrongSparsityChecker`` docstring: one (2,3)
game for the set capacities, a count of the edges inside S, and per S one
game of a count matroid M_S whose nullity is the heaviest family weight.
A verdict costs O(2^|T|) games.  Only a violation builds the bitmask
engine, to name its canonical witness, by one call per kind:
``_set_violation`` scans a table of induced edge counts over all vertex
subsets for the set capacities, and ``_family_violation`` searches the
weighted candidate blocks of the failing S.

Witness order: vertex sets compare by their sorted vertex tuples
(``_bits``), lexicographically, and family members are listed in that
order.  The canonical set witness is the first violating set in it; the
canonical family is the first hit of the block search, which tries blocks
in it.

Every enumeration (the subset tables and the 1-thin cover search here,
the cover minimum in ``matroid``, the checker's 2^|T| games) is bounded by
one cap, ``DEFAULT_CAP``, enforced by ``_check_cap`` alone; only the two
public decisions take a ``cap`` argument, which ``sparse --cap`` sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Graph
from .pebble import PebbleGame, pebble_rank_23

DEFAULT_CAP = 12


class InvariantError(RuntimeError):
    """A bound from the paper's proof steps failed: a bug or a false theorem.

    Raised by explicit checks that stay active under ``python -O``; the CLI
    reports it as a theorem violation (exit code 1).
    """


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

    def coverage(self) -> frozenset[tuple[int, int]]:
        return coverage(self.members)

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


def subset_edge_counts(g: Graph) -> list[int]:
    """i_G(X) for every vertex subset X, indexed by bitmask."""
    adj = g.adjacency_masks()
    size = 1 << g.n
    cnt = [0] * size
    for x in range(1, size):
        low = (x & -x).bit_length() - 1
        rest = x & (x - 1)
        cnt[x] = cnt[rest] + (adj[low] & rest).bit_count()
    return cnt


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


def _set_violation(g: Graph, S: frozenset[int]) -> SparsityViolation:
    """The canonical set violation of S: the first set X, in witness order,
    with i(X) > val_S(X).

    Callers scan only once a pebble game or an edge inside S shows that
    some set breaks its capacity.
    """
    i_cnt, s_mask = subset_edge_counts(g), _mask_of(S)
    hits = [x for x in range(1, 1 << g.n) if (pc := x.bit_count()) > 1
            and i_cnt[x] > (0 if x & ~s_mask == 0 else 2 * pc - 3)]
    _require(bool(hits), "a set was shown to break its capacity, but none does")
    X = _bits(min(hits, key=_bits))
    return SparsityViolation("set", S, frozenset(X), i_cnt[_mask_of(X)], val_set(X, S))


def _family_witness(cands: list[tuple[int, int]], thresh: int) -> list[int] | None:
    """First disjoint collection of blocks, in witness order, weighing over
    thresh; None if there is none.

    Blocks are tried in witness order, so the first hit is the canonical
    witness.  Each level keeps only the later blocks disjoint from those
    chosen, and stops once its remaining weight cannot exceed thresh; both
    prunes cut only subtrees without a hit.
    """
    blocks = [(b, w) for _, b, w in sorted((_bits(b), b, w) for b, w in cands)]

    def dfs(avail: list[tuple[int, int]], acc: int) -> list[int] | None:
        reach = acc + sum(w for _, w in avail)  # most weight this level can reach
        for idx, (b, w) in enumerate(avail):
            if reach <= thresh:
                return None
            if acc + w > thresh:
                return [b]
            hit = dfs([bw for bw in avail[idx + 1:] if not bw[0] & b], acc + w)
            if hit is not None:
                return [b] + hit
            reach -= w
        return None

    return dfs(blocks, 0)


def _family_violation(g: Graph, S: frozenset[int]) -> SparsityViolation:
    """The canonical violating S-family, given i(S) = 0 and that one exists:
    the first family of candidate blocks, in witness order, to break its
    capacity.

    A family {S|B_1, ..., S|B_k} of disjoint blocks violates its capacity
    iff the sum of w(B_i) exceeds 2|S| - 2, where w(B) = i(S|B) - 2|B| + 1.
    Blocks with w <= 0 never help, so the candidates are the nonempty
    blocks with w >= 1, as (B, w(B)).
    """
    i_cnt, s_mask = subset_edge_counts(g), _mask_of(S)
    free = b = ((1 << g.n) - 1) & ~s_mask
    cands = []
    while b:
        w = i_cnt[s_mask | b] - 2 * b.bit_count() + 1
        if w >= 1:
            cands.append((b, w))
        b = (b - 1) & free
    blocks = _family_witness(cands, 2 * len(S) - 2)
    _require(blocks is not None, "the family game's nullity exceeds 2|S| - 2, "
             "but no family of blocks is that heavy")
    fam = CompatibleFamily(S, tuple(S | frozenset(_bits(b)) for b in blocks))
    lhs = sum(i_cnt[s_mask | b] for b in blocks)
    return SparsityViolation("family", S, fam, lhs, val_family(fam))


# -- sparsity decisions ------------------------------------------------


def _check_cap(n: int, cap: int = DEFAULT_CAP, what: str = "graph"):
    """Refuse an enumeration over more than ``cap`` vertices (the one cap)."""
    if n > cap:
        raise ValueError(f"{what} has {n} vertices, enumeration cap is {cap}")


def _family_game(n: int, S: frozenset[int]) -> PebbleGame:
    """The pebble game of M_S on n vertices: S contracted to min(S), which
    holds no pebble, two pebbles elsewhere, and l = 1."""
    cap = [2] * n
    cap[min(S)] = 0
    return PebbleGame(n, cap, l=1)


def _family_breaks(g: Graph, ss: frozenset[int]) -> bool:
    """Whether g's nullity in M_S exceeds 2|S| - 2: with g (2,3)-sparse and
    no edge inside S, whether some S-family breaks its capacity."""
    s, game = min(ss), _family_game(g.n, ss)
    slack = 2 * len(ss) - 2
    for a, b in g.edge_list():
        if not game.try_insert(s if a in ss else a, s if b in ss else b):
            slack -= 1
            if slack < 0:
                return True
    return False


def is_S_sparse(g: Graph, S: Iterable[int], cap: int = DEFAULT_CAP) -> SparsityViolation | None:
    """None iff every set and every S-compatible family respects its capacity.

    Otherwise the first violating set, or failing that the first violating
    family, in witness order (module docstring) is returned as the witness.
    Decided by pebble games (see ``StrongSparsityChecker``): some set breaks
    its capacity iff an edge lies inside S or the (2,3) game rejects an
    edge; failing that, some family does iff the nullity in M_S exceeds
    2|S| - 2.  The 2^n subset table is built only to name a violation.
    """
    ss = g._check_T(S, "S")
    _check_cap(g.n, cap)
    if g.induced_edge_count(ss) or pebble_rank_23(g) < len(g.edges):
        return _set_violation(g, ss)
    if _family_breaks(g, ss):
        return _family_violation(g, ss)
    return None


def subsets_of_two_or_more(T: Iterable[int]) -> list[frozenset[int]]:
    """The subsets S of T with |S| >= 2, smallest first, then lexicographic."""
    ts = sorted(set(T))
    return [frozenset(sub) for k in range(2, len(ts) + 1)
            for sub in combinations(ts, k)]


def is_strongly_T_sparse(g: Graph, T: Iterable[int], cap: int = DEFAULT_CAP) -> SparsityViolation | None:
    """None iff g is S-sparse for every nonempty S inside T.

    Subsets are checked smallest first (then lexicographically); the first
    violation found is returned, as ``is_S_sparse`` would report it.  All
    singletons share the (2,3)-count capacities and have no family
    condition (with threshold 0 a block counts iff S|B breaks the
    (2,3)-count), so one (2,3) pebble game stands for them, and a
    violation is reported under S = {min T}.  Once it passes, the only set
    that can break a larger S's capacity is a pair S with an edge, and
    pairs come before larger sets.  Each S then plays its M_S game (see
    ``StrongSparsityChecker``): O(2^|T|) games per verdict, and a subset
    table only to name a violating set or family.
    """
    ts = g._check_T(T)
    _check_cap(g.n, cap)
    if pebble_rank_23(g) < len(g.edges):
        return _set_violation(g, frozenset({min(ts)}))
    for s in subsets_of_two_or_more(ts):
        inside = g.induced_edge_count(s)
        if inside:
            return SparsityViolation("set", s, s, inside, 0)
        if _family_breaks(g, s):
            return _family_violation(g, s)
    return None


class StrongSparsityChecker:
    """Incremental strong T-sparsity test used by greedy matroid runs.

    ``try_add`` accepts ab iff F, the accepted edges plus ab, stays
    strongly T-sparse, and leaves the accepted edges unchanged otherwise.
    T is a nonempty vertex set (``mt_oracle`` checks it) within the
    enumeration cap, since each S inside T gets a game.  F is strongly
    T-sparse iff no edge of F lies inside T, F is (2,3)-sparse (the other
    set capacities), and for each S with |S| >= 2 no disjoint blocks B_i of
    V minus S weigh over 2|S| - 2 in total, where w(B) = i(S|B) - 2|B| + 1
    (the family condition of the module docstring).

    The family condition bounds a nullity.  Contract S to s = min S,
    keeping parallel edges, with capacity c(s) = 0 and c(v) = 2 elsewhere.
    M_S is the count matroid on G/S in which a nonempty edge set E' has at
    most f(E') = c(V(E')) - 1 edges; f is nondecreasing and intersecting
    submodular (for E1, E2 sharing an edge, f(E1) + f(E2) =
    c(V1 | V2) + c(V1 & V2) - 2 >= f(E1 | E2) + f(E1 & E2)).  By Edmonds'
    rank formula, the nullity of F in M_S is the largest total excess
    |F_i| - f(F_i) of disjoint nonempty parts F_i of F.  Only parts of
    positive excess count, and each spans s, or it would have 2|V(F_i)|
    edges of G against (2,3)-sparsity.  Two that share a vertex besides s
    merge into one whose excess beats their sum by c(V_i & V_j) - 1 >= 1.
    So an optimum takes parts s|B_i with disjoint B_i and every edge they
    span: the i(S|B_i) edges of S|B_i (none lies inside S), of excess
    w(B_i).  The nullity is therefore the heaviest family weight, and S's
    condition says that F's nullity in M_S is at most 2|S| - 2.

    The checker holds a (2,3) ``PebbleGame`` and, per S, a game of M_S
    (l = 1) with the slack 2|S| - 2 minus the accepted edges' nullity.  ab
    is accepted iff it is not inside T, four pebbles gather on it in the
    (2,3) game, and for every S two pebbles gather on its image or the
    slack is positive: O(2^|T|) pebble searches per edge.
    """

    def __init__(self, n: int, T: Iterable[int]):
        self.T = frozenset(T)
        _check_cap(len(self.T), what="T")
        self.game = PebbleGame(n)
        self.family_games = []  # (S, s, M_S game)
        for S in subsets_of_two_or_more(self.T):
            self.family_games.append((S, min(S), _family_game(n, S)))
        self.slack = [2 * len(S) - 2 for S, _, _ in self.family_games]

    def try_add(self, a: int, b: int) -> bool:
        if a == b:
            raise ValueError("loop edge")
        if a in self.T and b in self.T or not self.game.gather(a, b):
            return False
        images = []  # ab's image in each game that takes it, else None
        for (S, s, game), slack in zip(self.family_games, self.slack):
            image = (s if a in S else a, s if b in S else b)
            images.append(image if game.gather(*image) else None)
            if not (images[-1] or slack):
                return False
        self.game.try_insert(a, b)
        for i, image in enumerate(images):
            if image:
                self.family_games[i][2].try_insert(*image)
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


# -- family transformations: merging and absorption ---------------------


def merge_overlapping(fam: CompatibleFamily) -> CompatibleFamily:
    """Replace the first pair of members meeting outside S by their union.

    The family value strictly drops (by at least one) and the coverage can
    only grow; both facts are checked (``InvariantError``).
    """
    members = fam.members
    for i, j in combinations(range(len(members)), 2):
        if len(members[i] & members[j]) >= len(fam.S) + 1:
            merged = members[i] | members[j]
            rest = [members[k] for k in range(len(members)) if k not in (i, j)]
            out = CompatibleFamily(fam.S, tuple(rest + [merged]))
            _require(val_family(out) <= val_family(fam) - 1,
                     "merging did not lower the family value")
            _require(fam.coverage() <= out.coverage(), "merging lost coverage")
            return out
    raise ValueError("no pair of members intersects outside S")


def _require_pairwise_exact(fam: CompatibleFamily):
    for H, K in combinations(fam.members, 2):
        if H & K != fam.S:
            raise ValueError("family members must pairwise intersect exactly in S")


def absorb_set(fam: CompatibleFamily, Y: Iterable[int]) -> CompatibleFamily:
    """Absorb a set Y into a pairwise-exactly-S family.

    Two shapes are handled: Y meets some member in two or more vertices
    (and S in at most one), in which case all such members merge with Y and
    the value grows by at most val_S(Y); or Y avoids S and meets at least
    two members in exactly one vertex each, in which case the first two hit
    members merge with Y at exactly val_S(Y) extra value.  Coverage
    containment and the value bound are checked (``InvariantError``).
    """
    _require_pairwise_exact(fam)
    ys = frozenset(Y)
    hits = [len(ys & H) for H in fam.members]
    if len(ys & fam.S) <= 1 and any(h >= 2 for h in hits):
        keep = [H for H, h in zip(fam.members, hits) if h <= 1]
        merged = ys
        for H, h in zip(fam.members, hits):
            if h >= 2:
                merged |= H
        out = CompatibleFamily(fam.S, tuple(keep + [merged]))
        _require(val_family(out) <= val_family(fam) + val_set(ys, fam.S),
                 "absorption raised the family value by more than val_S(Y)")
    elif not (ys & fam.S) and all(h <= 1 for h in hits) and sum(hits) >= 2:
        touched = [k for k, h in enumerate(hits) if h == 1]
        a, b = touched[0], touched[1]
        merged = fam.members[a] | fam.members[b] | ys
        rest = [fam.members[k] for k in range(len(fam.members)) if k not in (a, b)]
        out = CompatibleFamily(fam.S, tuple(rest + [merged]))
        _require(val_family(out) == val_family(fam) + val_set(ys, fam.S),
                 "absorption did not raise the family value by exactly val_S(Y)")
    else:
        raise ValueError("Y matches neither absorption case")
    _require(fam.coverage() | coverage([ys]) <= out.coverage(),
             "absorption lost coverage")
    return out


def combine_families(f1: CompatibleFamily, f2: CompatibleFamily) -> CompatibleFamily:
    """Combine an S1- and an S2-family into an (S1 u S2)-compatible family.

    Members are linked when they share a vertex outside both base sets;
    each connected component of that bipartite intersection graph is
    unioned (together with S1 u S2) into one output member.  Components
    that do not extend beyond S1 u S2 are absorbed by the rest, since every
    output member already contains S1 u S2.
    """
    s1, s2 = f1.S, f2.S
    if not (s1 & s2):
        raise ValueError("the base sets must intersect")
    su = s1 | s2
    nodes = [(H, s1) for H in f1.members] + [(H, s2) for H in f2.members]
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    k = len(f1.members)
    for i in range(k):
        for j in range(k, len(nodes)):
            if (nodes[i][0] - s1) & (nodes[j][0] - s2):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps: dict[int, frozenset[int]] = {}
    for idx, (H, _) in enumerate(nodes):
        r = find(idx)
        comps[r] = comps.get(r, frozenset()) | H
    members = [V | su for V in comps.values() if V | su != su]
    if not members:
        raise ValueError("every member lies inside S1 u S2; no combined family exists")
    out = CompatibleFamily(su, tuple(members))
    _require(f1.coverage() | f2.coverage() <= out.coverage(),
             "combining lost coverage")
    return out


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
        m = len(uncovered)
        for k in range(min(len(free), (state[0] - acc - 2) // 2), -1, -1):
            cost = acc + 2 * k + 1
            if cost >= state[0]:
                continue
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
