import random
from itertools import combinations

from coinrig.constructions import henneberg_random
from coinrig.graph import Graph, complete_bipartite, complete_graph
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
