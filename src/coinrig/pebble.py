"""Pebble games: rank computation in R_2, the (2,3) count matroid.

Each vertex starts with two pebbles.  An edge is accepted when four
pebbles can be gathered on its endpoints; accepted edges form a maximal
(2,3)-sparse subset of the input, whose size is the rank of the edge set.
Pebbles are fetched by depth-first search along accepted-edge
orientations, reversing the path walked.  The game takes parallel edges,
so it also ranks a multigraph such as a contraction G/S.  A game on G/S
whose graph G has been played starts from G's final game
(``PebbleGame.contracted``): the copy keeps the accepted edges that avoid
S and plays on only the edges it is given, up to a given count.  That game
keeps the input's vertex ids: S is merged into its smallest vertex, and
its other vertices are left isolated.  Only the incremental strong
sparsity checker, whose G/S games grow with G, plays them from empty.

The game also takes most edges without a search, by a count rule: an edge
ab that is not yet accepted, at a vertex v with at most one accepted edge,
keeps the accepted set F sparse.  For a vertex set X holding a and b with
|X| >= 3, i_F(X) <= i_F(X - v) + 1 <= 2|X| - 4, and {a, b} spans no edge
of F, so F + ab is (2,3)-sparse.  The rule changes no accepted set, since
whether an edge is accepted depends only on the accepted edges before it;
it changes only the orientation.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph


class PebbleGame:
    """Incremental (2,3) pebble game on n vertices.

    Out-degree plus pebbles is two at every vertex, so each out-edge list
    holds at most two heads.  The searches share one visited array, marked
    with a fresh stamp per search, and one parent array.

    ``deg[v]`` counts the accepted edges at v, and an edge that the count
    rule accepts (see the module docstring) is taken with no search, out of
    its end v of degree at most one: v has a pebble, as out-degree(v) <=
    deg[v] <= 1, so out-degree plus pebbles stays two everywhere and the
    accepted set stays sparse, which makes the orientation a state of the
    game (Lee-Streinu 2008), as in ``contracted``.
    """

    def __init__(self, n: int):
        self.n = n
        self.pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.accepted = 0
        self.deg = [0] * n
        self._seen = [0] * n
        self._stamp = 0
        self._parent = [0] * n

    def _free_end(self, a: int, b: int) -> int:
        """An end of ab the count rule inserts ab out of, or -1 if none.

        That is an end of accepted degree at most one, and ab must not be
        accepted already: it would be oriented out of a or out of b, and
        each out-edge list holds at most two heads.
        """
        deg = self.deg
        v = a if deg[a] <= deg[b] else b
        if deg[v] > 1 or b in self.out[a] or a in self.out[b]:
            return -1
        return v

    def _fetch(self, root: int, avoid: int) -> bool:
        """Pull one pebble to root via a directed path, avoiding ``avoid``."""
        self._stamp += 1
        stamp, seen, parent = self._stamp, self._seen, self._parent
        out, pebbles = self.out, self.pebbles
        seen[root] = seen[avoid] = stamp
        stack = [root]
        found = -1
        while stack and found < 0:
            v = stack.pop()
            for w in out[v]:
                if seen[w] == stamp:
                    continue
                seen[w] = stamp
                parent[w] = v
                if pebbles[w]:
                    found = w
                    break
                stack.append(w)
        if found < 0:
            return False
        pebbles[found] -= 1
        pebbles[root] += 1
        w = found
        while w != root:  # reverse the path root -> ... -> found
            v = parent[w]
            out[v].remove(w)
            out[w].append(v)
            w = v
        return True

    def _search(self, a: int, b: int) -> bool:
        """Gather four pebbles on a and b by fetches; whether that worked."""
        p = self.pebbles
        while p[a] < 2 and self._fetch(a, b):
            pass
        while p[b] < 2 and self._fetch(b, a):
            pass
        return p[a] + p[b] == 4

    def gather(self, a: int, b: int) -> bool:
        """Whether ab keeps the accepted set sparse; accepts nothing.

        That needs four pebbles gathered on the endpoints: three would only
        witness sparsity before the insertion.  Pebbles may move, but the
        accepted edges stay the same.  An edge the count rule accepts is
        answered with no search, and no pebble moves.
        """
        if a == b:
            raise ValueError("loop edge")
        return self._free_end(a, b) >= 0 or self._search(a, b)

    def try_insert(self, a: int, b: int) -> bool:
        """Accept ab iff the accepted set stays sparse; ab leaves a pebbled end.

        An edge the count rule accepts is taken with no search, out of its
        end of accepted degree at most one.
        """
        if a == b:
            raise ValueError("loop edge")
        v = self._free_end(a, b)
        if v < 0:
            if not self._search(a, b):
                return False
            v = a if self.pebbles[a] else b
        w = b if v == a else a
        self.accepted += 1
        self.pebbles[v] -= 1
        self.out[v].append(w)
        self.deg[v] += 1
        self.deg[w] += 1
        return True

    def contracted(self, S: frozenset[int], edges: Iterable[tuple[int, int]],
                   bound: int) -> PebbleGame:
        """This game's state with S merged into min(S), played on with
        ``edges`` until it holds ``bound`` edges; the ids stay the same.

        Every out-edge that touches S is dropped and its tail gets the pebble
        back, so each vertex of S has two pebbles and no out-edges; only
        min(S) takes new edges, and the other vertices of S stay isolated.
        The accepted edges left avoid S, so they stay sparse on the
        contracted graph, and out-degree plus pebbles is two everywhere: any
        such orientation is a state of the game (Lee-Streinu 2008).  The copy
        counts the degrees of the edges it keeps, then tries the images of
        ``edges`` in turn, S merged into min(S) and parallel images kept, as
        long as it holds fewer than ``bound`` edges.  So it holds the accepted
        edges that avoid S, extended to a maximal sparse set of the
        contracted graph, or ``bound`` edges if that comes first; a copy
        already at or over ``bound`` takes no edge.  This game is left
        unchanged.
        """
        game = PebbleGame(self.n)
        deg = game.deg
        for v, heads in enumerate(self.out):
            if v not in S:
                kept = [w for w in heads if w not in S]
                game.out[v] = kept
                game.pebbles[v] -= len(kept)
                game.accepted += len(kept)
                deg[v] += len(kept)
                for w in kept:
                    deg[w] += 1
        s = min(S)
        for a, b in edges:
            if game.accepted < bound:
                game.try_insert(s if a in S else a, s if b in S else b)
        return game


def pebble_game_23(g: Graph) -> PebbleGame:
    """The (2,3) game played on g's edges in ``edge_list`` order, in its
    final state: its accepted edges are a basis of g in R_2."""
    game = PebbleGame(g.n)
    for a, b in g.edge_list():
        game.try_insert(a, b)
    return game


def pebble_rank_23(g: Graph) -> int:
    """Rank of g's edges in the 2-dimensional rigidity matroid R_2."""
    return pebble_game_23(g).accepted
