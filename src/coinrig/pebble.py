"""Pebble games: rank computation in R_2, the (2,3) count matroid.

Each vertex starts with two pebbles.  An edge is accepted when four
pebbles can be gathered on its endpoints; accepted edges form a maximal
(2,3)-sparse subset of the input, whose size is the rank of the edge set.
Pebbles are fetched by depth-first search along accepted-edge
orientations, reversing the path walked.  The game keeps the edges it
rejects, in play order.  It takes parallel edges, so it also ranks a
multigraph such as a contraction G/S.

Every whole-graph game is ``pebble_basis_23``: the game on G', g less its
edges inside T, played in ``edge_list`` order, which proves each rejection
as it makes it.  ``check`` reads it for both of its sides, and the sparse
decisions read it with T empty.  A game on G/S then starts from that
game's final state (``PebbleGame.contracted(S, bound)``): the copy keeps
the accepted edges that avoid S and plays on only the accepted edges at S
and the rejected edges, up to a given count.  It keeps the input's vertex
ids: S is merged into its smallest vertex, and its other vertices are left
isolated.  Only the incremental strong sparsity checker, whose G/S games
grow with G, plays them from empty.

The game also takes most edges without a search, by a count rule: an edge
ab that is not yet accepted, at a vertex v with at most one accepted edge,
keeps the accepted set F sparse.  For a vertex set X holding a and b with
|X| >= 3, i_F(X) <= i_F(X - v) + 1 <= 2|X| - 4, and {a, b} spans no edge
of F, so F + ab is (2,3)-sparse.  The rule changes no accepted set, since
whether an edge is accepted depends only on the accepted edges before it;
it changes only the orientation.
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph


class InvariantError(RuntimeError):
    """A proven bound failed: a bug or a false theorem.

    The bounds are the proven facts the code relies on: each rejection of
    ``pebble_basis_23`` recounts to a set that spans its edge; a violation
    that a pebble game shows has a witness for the searches of
    ``sparsity`` to name; the cover minimum's family (``matroid``) is
    1-thin, covers the edges and has the minimum as its value; the edges
    the rt oracle accepts, and those a contracted game keeps, stay
    (2,3)-sparse; ``constructions.reduce_low_degree`` finds an admissible
    pair; and in ``linalg.generic_rank`` the R_2 rank of G' caps every
    sampled rank in the plane.

    Raised by explicit checks that stay active under ``python -O``; the CLI
    reports it as a theorem violation (exit code 1).
    """


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
        self.rejected: list[tuple[int, int]] = []
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
        accepted edges stay the same, and ``rejected`` records nothing.  An
        edge the count rule accepts is answered with no search, and no
        pebble moves.
        """
        if a == b:
            raise ValueError("loop edge")
        return self._free_end(a, b) >= 0 or self._search(a, b)

    def try_insert(self, a: int, b: int) -> bool:
        """Accept ab iff the accepted set stays sparse; ab leaves a pebbled end.

        An edge the count rule accepts is taken with no search, out of its
        end of accepted degree at most one.  A refused edge is appended to
        ``rejected``.
        """
        if a == b:
            raise ValueError("loop edge")
        v = self._free_end(a, b)
        if v < 0:
            if not self._search(a, b):
                self.rejected.append((a, b))
                return False
            v = a if self.pebbles[a] else b
        w = b if v == a else a
        self.accepted += 1
        self.pebbles[v] -= 1
        self.out[v].append(w)
        self.deg[v] += 1
        self.deg[w] += 1
        return True

    def contracted(self, S: frozenset[int], bound: int) -> PebbleGame:
        """This game's state with S merged into min(S), played on with the
        edges it has not kept until it holds ``bound`` edges; the ids stay
        the same.

        Every out-edge that touches S is dropped and its tail gets the pebble
        back, so each vertex of S has two pebbles and no out-edges; only
        min(S) takes new edges, and the other vertices of S stay isolated.
        The accepted edges left avoid S, so they stay sparse on the
        contracted graph, and out-degree plus pebbles is two everywhere: any
        such orientation is a state of the game (Lee-Streinu 2008).  The copy
        counts the degrees of the edges it keeps, and collects the accepted
        edges at S in the same walk.  It then tries the images of those
        edges, and after them the images of ``rejected``, S merged into
        min(S) and parallel images kept, as long as it holds fewer than
        ``bound`` edges; an image inside S is a loop of the contracted graph
        and is dropped, as ``Graph.contract`` drops it.  Those are the
        images of every played edge the copy does not keep, so it holds the
        accepted edges that avoid S, extended to a maximal sparse set of the
        contracted graph, or ``bound`` edges if that comes first; a copy
        already at or over ``bound`` takes no edge.  The order changes no
        count, only the work.  This game is left unchanged.
        """
        game = PebbleGame(self.n)
        deg = game.deg
        at = []  # the accepted edges at S
        for v, heads in enumerate(self.out):
            if v in S:
                at += [(v, w) for w in heads]
                continue
            kept = [w for w in heads if w not in S]
            if len(kept) < len(heads):
                at += [(v, w) for w in heads if w in S]
            game.out[v] = kept
            game.pebbles[v] -= len(kept)
            game.accepted += len(kept)
            deg[v] += len(kept)
            for w in kept:
                deg[w] += 1
        s = min(S)
        for a, b in chain(at, self.rejected):
            if game.accepted >= bound:
                break
            a, b = s if a in S else a, s if b in S else b
            if a != b:
                game.try_insert(a, b)
        return game


def pebble_basis_23(g: Graph, T: frozenset[int]) -> tuple[
        list[tuple[int, int]], PebbleGame]:
    """The (2,3) game on G', g less its edges inside T: its accepted edges
    and the game itself in its final state, its rejected edges in
    ``rejected``.

    g's edges are played in ``edge_list`` order, those inside T skipped, so
    the accepted list is a basis of G' in R_2, and both lists keep that
    order.  Most inserts need no pebble search: the game's count rule
    accepts an edge at a vertex of accepted degree at most one outright,
    and a rejection is always a failed search.

    Each rejection is proved as it is made, recounted from the accepted
    list, not from the orientation.  A rejected ab needs a set R that holds
    a and b and spans at least 2|R| - 3 accepted edges: R is the set of
    vertices reachable from a and b once the gather failed, which leaves
    l = 3 pebbles on a and b and none on R's other vertices, with every
    out-edge of R inside R (Lee-Streinu 2008).  The accepted edges are
    independent (the game accepts only edges that keep its set sparse), and
    no planar realization ranks the rows of R's edges above 2|R| - 3,
    coincident points included, so ab's row is in their span generically.
    The generic rank of G' is then the basis size, and no sampled trial
    ranks above it.  A rejection that fails its recount raises
    ``InvariantError``.

    This is every whole-graph game: ``check_coincident_rigidity`` plays it
    once on G' for both of its sides, the algebraic one taking the basis
    and the combinatorial one copying the game onto each G'/S, and the
    sparse decisions play it on G with T empty.  Neither ``_reach`` nor
    ``PebbleGame.contracted`` changes the game.
    """
    game = PebbleGame(g.n)
    basis = []
    up: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edge_list():
        if a in T and b in T:
            continue
        if game.try_insert(a, b):
            basis.append((a, b))
            up[a].append(b)
            continue
        R = _reach(game.out, a, b)
        spanned = sum(len(R.intersection(up[v])) for v in R)
        if spanned < 2 * len(R) - 3:
            raise InvariantError(
                f"rejected edge ({a}, {b}) is not in the R_2 closure of the "
                f"accepted edges: its set of {len(R)} vertices spans {spanned}")
    return basis, game


def _reach(out: list[list[int]], a: int, b: int) -> set[int]:
    """Vertices reachable from a or b along ``out``, a and b included."""
    seen = {a, b}
    stack = [a, b]
    while stack:
        for w in out[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def pebble_rank_23(g: Graph) -> int:
    """Rank of g's edges in the 2-dimensional rigidity matroid R_2."""
    return len(pebble_basis_23(g, frozenset())[0])
