"""Graph growth operations that preserve rigidity, plus a random generator.

0-extension, 1-extension, vertex splitting, rigid-subgraph replacement and
the low-degree reduction that inverts the extension moves on strongly
T-sparse graphs.  The Henneberg generator chains random 0-/1-extensions to
produce independent test graphs with 2n-3 edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import Graph
from .sparsity import DEFAULT_CAP, InvariantError, is_strongly_T_sparse


def zero_extension(g: Graph, a: int, b: int, label: str | None = None) -> Graph:
    """Add a new vertex joined to the two distinct vertices a and b."""
    if a == b:
        raise ValueError("0-extension needs two distinct attachment vertices")
    return g.add_vertex([a, b], label=label)


def one_extension(g: Graph, uv: tuple[int, int], x: int,
                  label: str | None = None) -> Graph:
    """Delete edge uv, add a new vertex joined to u, v and a third vertex x."""
    u, v = uv
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) is not an edge of the graph")
    if x in (u, v):
        raise ValueError("the third neighbour must differ from the split edge's ends")
    return g.delete_edges([(u, v)]).add_vertex([u, v, x], label=label)


@dataclass(frozen=True)
class SplitSpec:
    """Neighbourhood partition for a vertex split: z keeps U1+U2, the copy gets U2+U3."""

    z: int
    U1: frozenset[int]
    U2: frozenset[int]
    U3: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "U1", frozenset(self.U1))
        object.__setattr__(self, "U2", frozenset(self.U2))
        object.__setattr__(self, "U3", frozenset(self.U3))
        if len(self.U2) != 2:
            raise ValueError("U2 must contain exactly two vertices")
        if (self.U1 & self.U2) or (self.U1 & self.U3) or (self.U2 & self.U3):
            raise ValueError("U1, U2, U3 must be pairwise disjoint")


def vertex_split(g: Graph, spec: SplitSpec, label: str | None = None) -> Graph:
    """Split z: edges to U3 move to a new copy z', which also joins U2."""
    if spec.U1 | spec.U2 | spec.U3 != g.neighbors(spec.z):
        raise ValueError("U1, U2, U3 must partition the neighbourhood of z")
    trimmed = g.delete_edges([(spec.z, u) for u in spec.U3])
    return trimmed.add_vertex(sorted(spec.U2 | spec.U3), label=label)


def replace_rigid_subgraph(g: Graph, Y: Iterable[int],
                           partition: Iterable[Iterable[int]]) -> Graph:
    """Contract each partition class of Y to one vertex, then complete them.

    The m >= 3 class representatives end up pairwise adjacent; everything
    outside Y is untouched.
    """
    ys = frozenset(Y)
    parts = [frozenset(p) for p in partition]
    if len(parts) < 3:
        raise ValueError("the partition must have at least three classes")
    seen: set[int] = set()
    for p in parts:
        if not p or (p & seen):
            raise ValueError("partition classes must be nonempty and disjoint")
        seen |= p
    if seen != ys:
        raise ValueError("the classes must partition Y exactly")
    cur = g
    where = {v: v for v in range(g.n)}  # original id -> current id
    for p in parts:
        cur_ids = {where[v] for v in p}
        if len(cur_ids) >= 2:
            cmap = cur.contraction_map(cur_ids)
            cur = cur.contract(cur_ids)
            where = {v: cmap[i] for v, i in where.items()}
    # representatives must be read off after every contraction has shifted ids
    reps = sorted({where[next(iter(p))] for p in parts})
    return cur.add_edges([(a, b) for a, b in combinations(reps, 2)])


def reduce_low_degree(g: Graph, T: Iterable[int], z: int,
                      cap: int = DEFAULT_CAP) -> Graph:
    """Invert an extension at a degree-2 or degree-3 vertex z outside T.

    Degree 2: remove z.  Degree 3: remove z and add the first non-adjacent
    neighbour pair (canonical order) that keeps the graph strongly T-sparse;
    such a pair always exists when the input is strongly T-sparse and z has
    at most one neighbour in T.  Ids above z shift down by one.
    """
    ts = frozenset(T)
    if z in ts:
        raise ValueError("z must lie outside T")
    if is_strongly_T_sparse(g, ts, cap) is not None:
        raise ValueError("the input graph is not strongly T-sparse")
    nbrs = g.neighbors(z)
    if len(nbrs & ts) > 1:
        raise ValueError("z may have at most one neighbour in T")
    if len(nbrs) == 2:
        return g.remove_vertex(z)
    if len(nbrs) != 3:
        raise ValueError(f"z must have degree 2 or 3, has {len(nbrs)}")
    shift = lambda v: v if v < z else v - 1
    new_T = frozenset(shift(t) for t in ts)
    removed = g.remove_vertex(z)
    for x, y in combinations(sorted(nbrs), 2):
        if g.has_edge(x, y):
            continue
        candidate = removed.add_edges([(shift(x), shift(y))])
        if is_strongly_T_sparse(candidate, new_T, cap) is None:
            return candidate
    raise InvariantError(
        "no admissible neighbour pair found; this contradicts the reduction "
        "guarantee and indicates a bug or a violated hypothesis")


def henneberg_random(n: int, seed: int) -> Graph:
    """Random graph on n vertices built from K2 by 0-/1-extensions.

    Always has 2n-3 edges and is independent in the 2-dimensional rigidity
    matroid.  0-extensions are chosen with probability 0.7 once both moves
    are available; the result is a deterministic function of the seed.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    g = Graph(2, [(0, 1)])
    while g.n < n:
        if g.n < 3 or rng.random() < 0.7:
            a, b = rng.sample(range(g.n), 2)
            g = zero_extension(g, a, b)
        else:
            u, v = rng.choice(g.edge_list())
            x = rng.choice([w for w in range(g.n) if w not in (u, v)])
            g = one_extension(g, (u, v), x)
    return g
