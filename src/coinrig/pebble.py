"""(2,3)-pebble game: rank computation in the 2-dimensional rigidity matroid.

Each vertex starts with two pebbles.  An edge is accepted when four pebbles
can be gathered on its endpoints; accepted edges form a maximal (2,3)-sparse
subset of the input, whose size is the rank of the edge set.  Pebbles are
fetched by depth-first search along accepted-edge orientations, reversing
the path walked.
"""

from __future__ import annotations

from .graph import Graph


class PebbleGame:
    """Incremental (2,3)-pebble game on n vertices.

    Out-degree plus pebbles is 2 at every vertex, so each out-edge list
    holds at most two heads.  The searches share one visited array, marked
    with a fresh stamp per search, and one parent array.
    """

    def __init__(self, n: int):
        self.n = n
        self.pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.accepted = 0
        self._seen = [0] * n
        self._stamp = 0
        self._parent = [0] * n

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

    def gather(self, a: int, b: int) -> bool:
        """Whether ab keeps the accepted set (2,3)-sparse; accepts nothing.

        That needs l+1 = 4 pebbles gathered on the endpoints: three would
        only witness sparsity before the insertion.  Pebbles may move, but
        the accepted edges stay the same.
        """
        if a == b:
            raise ValueError("loop edge")
        while self.pebbles[a] < 2 and self._fetch(a, b):
            pass
        while self.pebbles[b] < 2 and self._fetch(b, a):
            pass
        return self.pebbles[a] + self.pebbles[b] == 4

    def try_insert(self, a: int, b: int) -> bool:
        """Accept edge ab iff the accepted set stays (2,3)-sparse."""
        if not self.gather(a, b):
            return False
        self.accepted += 1
        self.pebbles[a] -= 1
        self.out[a].append(b)
        return True


def pebble_rank_23(g: Graph) -> int:
    """Rank of g's edges in the 2-dimensional rigidity matroid R_2."""
    game = PebbleGame(g.n)
    for a, b in g.edge_list():
        game.try_insert(a, b)
    return game.accepted
