import random
from itertools import combinations

import pytest

from coinrig.constructions import henneberg_random, zero_extension
from coinrig.graph import Graph, complete_bipartite, complete_graph
from coinrig.linalg import _reach, pebble_basis_23
from coinrig.pebble import PebbleGame, pebble_rank_23


def brute_laman_rank(g, edges):
    """Independent oracle: largest (2,3)-sparse subset by subset scan."""
    def sparse(subset):
        for k in range(2, g.n + 1):
            for X in combinations(range(g.n), k):
                xs = set(X)
                cnt = sum(1 for a, b in subset if a in xs and b in xs)
                if cnt > 2 * k - 3:
                    return False
        return True

    best = 0
    for r in range(len(edges), -1, -1):
        for sub in combinations(edges, r):
            if sparse(sub):
                return r
    return best


def test_known_ranks():
    assert pebble_rank_23(complete_graph(3)) == 3
    assert pebble_rank_23(complete_graph(4)) == 5
    assert pebble_rank_23(complete_graph(5)) == 7
    assert pebble_rank_23(complete_bipartite(5, 5)) == 17
    path = Graph(3, [(0, 1), (1, 2)])
    assert pebble_rank_23(path) == 2


def test_matches_bruteforce_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        g = Graph(n, edges)
        assert pebble_rank_23(g) == brute_laman_rank(g, sorted(g.edges))


def test_edge_subset_argument():
    # an edge subset is ranked as the subgraph it spans
    K4 = complete_graph(4)
    sub = [(0, 1), (1, 2), (2, 3)]
    assert pebble_rank_23(Graph(4, sub)) == len(sub)  # (2,3)-sparse
    assert pebble_rank_23(K4) < len(K4.edges)  # not (2,3)-sparse


def test_henneberg_graphs_are_independent():
    for seed in range(10):
        g = henneberg_random(12, seed)
        assert len(g.edges) == 2 * g.n - 3
        assert pebble_rank_23(g) == 2 * g.n - 3


def test_incremental_game_rejects_overfull():
    game = PebbleGame(4)
    accepted = [e for e in combinations(range(4), 2) if game.try_insert(*e)]
    assert len(accepted) == 5


def _is_23_sparse(n, edges):
    for k in range(2, n + 1):
        for X in combinations(range(n), k):
            xs = set(X)
            if sum(1 for a, b in edges if a in xs and b in xs) > 2 * k - 3:
                return False
    return True


def test_decisions_are_subset_counts_and_pebbles_balance():
    # whatever the orientation the searches leave, an edge is accepted
    # exactly when the accepted set stays (2,3)-sparse
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = rng.sample(pairs, rng.randint(0, len(pairs)))
        game = PebbleGame(n)
        accepted = []
        for a, b in order:
            if rng.random() < 0.5:
                a, b = b, a
            want = _is_23_sparse(n, accepted + [(a, b)])
            assert game.try_insert(a, b) == want, (accepted, (a, b))
            if want:
                accepted.append((a, b))
            assert all(len(game.out[v]) + game.pebbles[v] == 2 for v in range(n))
        assert game.accepted == len(accepted)


def test_capacity_zero_vertex_with_l_one():
    # s = 0 holds no pebble; an edge needs two pebbles gathered on its ends
    game = PebbleGame(3, cap=[0, 2, 2], l=1)
    assert game.try_insert(0, 1)
    assert game.out[1] == [0] and game.out[0] == []  # it leaves the pebbled end
    assert not game.try_insert(1, 0)  # s-a twice spans {s, a}: 2 > c - 1 = 1
    assert game.try_insert(1, 2)
    assert game.accepted == 2


def _fits_count(cap, l, edges):
    """Every vertex set X spanning an edge spans at most cap(X) - l of them."""
    n = len(cap)
    for k in range(1, n + 1):
        for X in combinations(range(n), k):
            xs = set(X)
            cnt = sum(1 for a, b in edges if a in xs and b in xs)
            if cnt and cnt > sum(cap[v] for v in X) - l:
                return False
    return True


def test_capacities_balance_and_decide_the_count():
    # a vertex of capacity 0 (a contracted set) and l = 1, with parallel
    # edges: decisions are the count, and pebbles + out-degree = capacity
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 7)
        cap = [2] * n
        cap[rng.randrange(n)] = 0
        game = PebbleGame(n, cap=cap, l=1)
        accepted = []
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2)
            want = _fits_count(cap, 1, accepted + [(a, b)])
            assert game.try_insert(a, b) == want, (cap, accepted, (a, b))
            if want:
                accepted.append((a, b))
            assert all(len(game.out[v]) + game.pebbles[v] == cap[v] for v in range(n))
        assert game.accepted == len(accepted)


class SearchOnlyGame(PebbleGame):
    """The (2,3) game with no count rule: every edge is decided by a search."""

    def gather(self, a, b):
        if a == b:
            raise ValueError("loop edge")
        p, cap, need = self.pebbles, self.cap, self.need
        while p[a] < cap[a] and p[a] + p[b] < need and self._fetch(a, b):
            pass
        while p[b] < cap[b] and p[a] + p[b] < need and self._fetch(b, a):
            pass
        return p[a] + p[b] >= need

    def try_insert(self, a, b):
        if not self.gather(a, b):
            return False
        if not self.pebbles[a]:
            a, b = b, a
        self.accepted += 1
        self.pebbles[a] -= 1
        self.out[a].append(b)
        return True

    def contracted(self, S):
        game = SearchOnlyGame(self.n)
        for v, heads in enumerate(self.out):
            if v not in S:
                kept = [w for w in heads if w not in S]
                game.out[v] = kept
                game.pebbles[v] -= len(kept)
                game.accepted += len(kept)
        return game


def _play_both(game, ref, edges, rng):
    """Feed both games the same edges, some gathered first, and check that
    they accept the same ones, with balance and degrees right at each step."""
    accepted = [tuple(sorted((v, w))) for v, heads in enumerate(game.out) for w in heads]
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.3:
            assert game.gather(a, b) == ref.gather(a, b), (accepted, (a, b))
        took = game.try_insert(a, b)
        assert took == ref.try_insert(a, b), (accepted, (a, b))
        if took:
            accepted.append((min(a, b), max(a, b)))
        assert all(len(game.out[v]) + game.pebbles[v] == 2 for v in range(game.n))
        deg = [0] * game.n
        for e in accepted:
            for v in e:
                deg[v] += 1
        assert game.deg == deg and game.accepted == len(accepted)


def _state(game):
    """A copy of everything a game's moves change."""
    return ([list(heads) for heads in game.out], list(game.pebbles),
            None if game.deg is None else list(game.deg), game.accepted)


def test_count_rule_accepts_what_the_search_accepts():
    # shuffled orders, both endpoint orders, repeated inserts, gathers
    # before inserts, and contracted states fed the merged images; the
    # reached sets and the contracted copy, played on, leave the source game
    # as it was, since check reads one G' game for both of its sides
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(2, 12)
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        rng.shuffle(edges)
        game, ref = PebbleGame(n), SearchOnlyGame(n)
        _play_both(game, ref, edges, rng)
        before = _state(game)
        for a, b in edges[:3]:
            R = _reach(game.out, a, b)
            assert a in R and b in R and len(set(R)) == len(R)
        assert _state(game) == before
        if n < 3:
            continue
        S = frozenset(rng.sample(range(n), rng.randint(2, min(3, n - 1))))
        m = min(S)
        images = [(m if a in S else a, m if b in S else b) for a, b in edges]
        images = [e for e in images if e[0] != e[1]]
        rng.shuffle(images)
        _play_both(game.contracted(S), ref.contracted(S), images, rng)
        assert _state(game) == before


def test_zero_extension_graphs_need_no_search(monkeypatch):
    # in edge_list order each edge of a 0-extension graph meets an endpoint
    # of accepted degree at most one, so the cap game never fetches a pebble
    rng = random.Random(3)
    g = Graph(2, [(0, 1)])
    while g.n < 40:
        g = zero_extension(g, *rng.sample(range(g.n), 2))
    fetches = []
    real = PebbleGame._fetch
    monkeypatch.setattr(PebbleGame, "_fetch",
                        lambda game, root, avoid: fetches.append(root) or real(game, root, avoid))
    basis, reached, _ = pebble_basis_23(g)
    assert len(basis) == 2 * g.n - 3 and not reached
    assert fetches == []


def test_second_insert_of_an_edge():
    # the default (2,3) game rejects ab twice, though both ends have degree 1
    game = PebbleGame(3)
    assert game.try_insert(0, 1)
    assert not game.gather(1, 0) and not game.try_insert(1, 0)
    assert game.deg == [1, 1, 0] and game.accepted == 1
    # the capacity-0, l = 1 game keeps no degrees and decides by searches:
    # it takes a parallel image 1-2 twice, as {1, 2} spans 3 = 2 + 2 - 1
    game = PebbleGame(3, cap=[0, 2, 2], l=1)
    assert game.deg is None
    assert game.try_insert(1, 2) and game.try_insert(2, 1)
    assert game.try_insert(0, 1)  # {0, 1, 2} spans 3 = 0 + 2 + 2 - 1
    assert not game.try_insert(1, 2) and not game.try_insert(0, 2)
    assert game.accepted == 3
    # contracted copies only the default game, whose caps it rebuilds
    with pytest.raises(ValueError, match="only the default"):
        game.contracted(frozenset({1, 2}))
