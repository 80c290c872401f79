"""Sparsity counts and certificates for coincident-vertex rigidity.

Capacities val_S of vertex sets, S-compatible and augmented families with
their values, (strongly) T-sparse decisions with explicit violation
witnesses, the family transformation steps, and the brute-force 1-thin
cover minimum that realizes the rank function of the 2-dimensional rigidity
matroid.

Family checks only enumerate families whose members pairwise intersect
exactly in S: merging an overlapping pair never shrinks coverage and
strictly lowers the family value, so any violating family reduces to one of
this shape.  Such families are exactly the collections of disjoint nonempty
"blocks" of V minus S, with member H_i = S union B_i.

One bitmask engine decides strong T-sparsity: a table of induced edge
counts over all vertex subsets, a scan of set capacities, and one
lexicographic search over weighted candidate blocks per S whose first hit
is the canonical family witness.  ``is_S_sparse``, ``is_strongly_T_sparse``
and the incremental ``StrongSparsityChecker`` all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .graph import Graph

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

    def key(self) -> tuple:
        return tuple(tuple(sorted(H)) for H in self.members)


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


def covered_edge_count(g: Graph, aug: AugmentedFamily) -> int:
    return len(aug.covers() & g.edges)


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


def _set_violation(n: int, i_cnt: list[int], s_mask: int):
    """Lexicographically smallest set X with i(X) > val_S(X), if any."""
    best = None
    for x in range(1, 1 << n):
        pc = x.bit_count()
        if pc < 2:
            continue
        cap = 0 if x & ~s_mask == 0 else 2 * pc - 3
        if i_cnt[x] > cap:
            key = _bits(x)
            if best is None or key < best[0]:
                best = (key, i_cnt[x], cap)
    return best


def _family_candidates(n: int, i_cnt: list[int], s_mask: int) -> tuple[list[tuple[int, int]], int]:
    """Blocks B (disjoint from S) whose member S|B can contribute to a violation.

    With i(S) = 0 a family {S|B_1, ..., S|B_k} of disjoint blocks violates
    its capacity iff sum of w(B_i) exceeds 2|S|-2, where
    w(B) = (2|S|-2) - (2|S|B|-3 - i(S|B)).  Blocks with w <= 0 never help,
    so only w >= 1 blocks are returned, with the threshold 2|S|-2.
    """
    thresh = 2 * s_mask.bit_count() - 2
    comp = ((1 << n) - 1) & ~s_mask
    cands = []
    b = comp
    while b:
        x = s_mask | b
        w = thresh - (2 * x.bit_count() - 3 - i_cnt[x])
        if w >= 1:
            cands.append((b, w))
        b = (b - 1) & comp
    return cands, thresh


def _family_witness(cands: list[tuple[int, int]], thresh: int) -> list[int] | None:
    """Canonically first disjoint collection of blocks weighing over thresh.

    Blocks are tried in lexicographic order of their vertex tuples, so the
    first hit is the canonical witness.  Each level keeps only the later
    blocks disjoint from those chosen, and stops once its remaining weight
    cannot exceed thresh; both prunes cut only subtrees without a hit.
    """
    if sum(w for _, w in cands) <= thresh:
        return None
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


def _family_violation(n: int, i_cnt: list[int], ss: frozenset[int]) -> SparsityViolation | None:
    """The canonical violating S-family (given i(S) = 0), or None."""
    s_mask = _mask_of(ss)
    blocks = _family_witness(*_family_candidates(n, i_cnt, s_mask))
    if blocks is None:
        return None
    fam = CompatibleFamily(ss, tuple(ss | frozenset(_bits(b)) for b in blocks))
    lhs = sum(i_cnt[s_mask | b] for b in blocks)
    return SparsityViolation("family", ss, fam, lhs, val_family(fam))


# -- sparsity decisions ------------------------------------------------


def _check_cap(g: Graph, cap: int):
    if g.n > cap:
        raise ValueError(f"graph has {g.n} vertices, enumeration cap is {cap}")


def _check_args(g: Graph, name: str, vs: frozenset[int], cap: int):
    if not vs:
        raise ValueError(f"{name} must be nonempty")
    for v in sorted(vs):
        if not 0 <= v < g.n:
            raise ValueError(f"{name} contains invalid vertex {v}")
    _check_cap(g, cap)


def is_S_sparse(g: Graph, S: Iterable[int], cap: int = DEFAULT_CAP) -> SparsityViolation | None:
    """None iff every set and every S-compatible family respects its capacity.

    Otherwise the canonically smallest violating set, or the canonically
    first violating family of candidate blocks, is returned as the witness.
    """
    ss = frozenset(S)
    _check_args(g, "S", ss, cap)
    i_cnt = subset_edge_counts(g)
    hit = _set_violation(g.n, i_cnt, _mask_of(ss))
    if hit:
        key, lhs, rhs = hit
        return SparsityViolation("set", ss, frozenset(key), lhs, rhs)
    return _family_violation(g.n, i_cnt, ss)


def nonempty_subsets_canonical(T: Iterable[int], min_size: int = 1) -> list[frozenset[int]]:
    ts = sorted(set(T))
    out = []
    for k in range(min_size, len(ts) + 1):
        for sub in combinations(ts, k):
            out.append(frozenset(sub))
    return out


def is_strongly_T_sparse(g: Graph, T: Iterable[int], cap: int = DEFAULT_CAP) -> SparsityViolation | None:
    """None iff g is S-sparse for every nonempty S inside T.

    Subsets are checked smallest first (then lexicographically); the first
    violation found is returned, as ``is_S_sparse`` would report it.  One
    subset table serves every S.  All singletons share the (2,3)-count
    capacities and have no family condition (with threshold 0 a block
    counts iff S|B breaks the (2,3)-count), so one scan stands for them,
    reported under S = {min T}.  Once it passes, the only set that can
    break a larger S's capacity is a pair S with an edge, and pairs come
    before larger sets.
    """
    ts = frozenset(T)
    _check_args(g, "T", ts, cap)
    i_cnt = subset_edge_counts(g)
    hit = _set_violation(g.n, i_cnt, 0)
    if hit:
        key, lhs, rhs = hit
        return SparsityViolation("set", frozenset({min(ts)}), frozenset(key), lhs, rhs)
    for s in nonempty_subsets_canonical(ts, min_size=2):
        inside = i_cnt[_mask_of(s)]
        if inside:
            return SparsityViolation("set", s, s, inside, 0)
        v = _family_violation(g.n, i_cnt, s)
        if v is not None:
            return v
    return None


class StrongSparsityChecker:
    """Incremental strong T-sparsity test used by greedy matroid runs.

    Maintains the subgraph accepted so far and its subset-count table;
    ``try_add`` accepts an edge iff the grown edge set is still strongly
    T-sparse, and leaves the state unchanged otherwise.  It runs the public
    decision's engine on the sets containing the new edge: the per-set
    capacities collapse to the (2,3)-count plus "no edge inside T", and each
    S with |S| >= 2 gets the shared family search.
    """

    def __init__(self, n: int, T: Iterable[int], cap: int = DEFAULT_CAP):
        if n > cap:
            raise ValueError(f"graph has {n} vertices, enumeration cap is {cap}")
        self.n = n
        self.full = (1 << n) - 1
        self.t_mask = _mask_of(T)
        if self.t_mask == 0:
            raise ValueError("T must be nonempty")
        self.i_cnt = [0] * (1 << n)
        self.edges: list[tuple[int, int]] = []
        ts = sorted(_bits(self.t_mask))
        self.s_masks = [_mask_of(sub)
                        for k in range(2, len(ts) + 1)
                        for sub in combinations(ts, k)]

    def _bump(self, eb: int, delta: int):
        s = eb
        while True:
            self.i_cnt[s] += delta
            if s == self.full:
                break
            s = (s + 1) | eb

    def try_add(self, a: int, b: int) -> bool:
        eb = (1 << a) | (1 << b)
        if a == b:
            raise ValueError("loop edge")
        if eb & ~self.t_mask == 0:
            return False  # edge inside T: capacity 0 for S = {a, b}
        self._bump(eb, 1)
        ok = True
        s = eb
        while True:  # (2,3)-count on sets containing the new edge
            if self.i_cnt[s] > 2 * s.bit_count() - 3:
                ok = False
                break
            if s == self.full:
                break
            s = (s + 1) | eb
        if ok:
            for s_mask in self.s_masks:
                cands, thresh = _family_candidates(self.n, self.i_cnt, s_mask)
                if _family_witness(cands, thresh) is not None:
                    ok = False
                    break
        if not ok:
            self._bump(eb, -1)
            return False
        self.edges.append((a, b) if a < b else (b, a))
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


# -- enumeration (reference oracle) ------------------------------------


def partial_partitions(elems: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
    """All collections of disjoint nonempty blocks of elems (incl. empty)."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for fam in partial_partitions(rest):
        yield fam
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            block = frozenset((first,) + extra)
            remaining = tuple(e for e in rest if e not in block)
            for fam in partial_partitions(remaining):
                yield (block,) + fam


def enumerate_compatible_families(g: Graph, S: Iterable[int]) -> Iterator[CompatibleFamily]:
    """Every S-compatible family whose members pairwise intersect exactly in S."""
    ss = frozenset(S)
    others = tuple(v for v in range(g.n) if v not in ss)
    for blocks in partial_partitions(others):
        if blocks:
            yield CompatibleFamily(ss, tuple(ss | b for b in blocks))


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


def _coverage_lower_bounds(max_val: int = 64) -> list[int]:
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


_COVER_LB = _coverage_lower_bounds()


def min_thin_cover(n: int, edge_masks: list[int], forbidden: int = 0,
                   cap_val: int | None = None):
    """Min total (2|X|-3) over 1-thin set families covering the given edges.

    Sets may meet ``forbidden`` (the union of an augmented family's H-part)
    in at most one vertex.  Returns (value, sets); None when some edge
    cannot be covered at all, or when no cover is strictly cheaper than
    ``cap_val`` (used as a branch-and-bound incumbent by callers).
    """
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

    def candidates(e: int, uncovered: list[int], chosen: list[int]) -> list[int]:
        # a set in an optimal cover keeps only vertices seeing an uncovered
        # edge inside it, so candidates live within the uncovered support
        nb = {}
        for f in uncovered:
            a, b = _bits(f)
            nb[a] = nb.get(a, 0) | (1 << b)
            nb[b] = nb.get(b, 0) | (1 << a)
        relevant = 0
        for v in nb:
            relevant |= 1 << v
        out = []
        free = relevant & ~e
        sub = free
        while True:
            x = e | sub
            if (x & forbidden).bit_count() <= 1 and \
                    all((x & y).bit_count() <= 1 for y in chosen) and \
                    all(nb[v] & x for v in _bits(x)):
                out.append(x)
            if sub == 0:
                break
            sub = (sub - 1) & free
        out.sort(key=lambda m: -m.bit_count())  # big tight blocks first
        return out

    def dfs(uncovered: list[int], chosen: list[int], acc: int):
        if not uncovered:
            state[0], state[1] = acc, list(chosen)
            return
        if acc + _COVER_LB[min(len(uncovered), len(_COVER_LB) - 1)] >= state[0]:
            return
        e = uncovered[0]
        for x in candidates(e, uncovered, chosen):
            v = 2 * x.bit_count() - 3
            if acc + v >= state[0]:
                continue
            rest = [f for f in uncovered if f & ~x]
            chosen.append(x)
            dfs(rest, chosen, acc + v)
            chosen.pop()

    dfs(targets, [], 0)
    if state[1] is None:
        return None
    return state[0], state[1]


def ly_rank_bruteforce(g: Graph, eprime: Iterable[tuple[int, int]] | None = None,
                       cap: int = 10) -> int:
    """Rank of an edge set in R_2 via the 1-thin cover minimum."""
    _check_cap(g, cap)
    edges = g.edge_list() if eprime is None else sorted(
        (e if e[0] < e[1] else (e[1], e[0])) for e in eprime)
    for e in edges:
        if e not in g.edges:
            raise ValueError(f"edge {e} is not an edge of the graph")
    if not edges:
        return 0
    masks = [(1 << a) | (1 << b) for a, b in edges]
    res = min_thin_cover(g.n, masks)
    value, _ = res
    return value
