import random
from collections import Counter
from itertools import combinations

import coinrig.pebble
from coinrig.checks import random_instance
from coinrig.constructions import henneberg_random, zero_extension
from coinrig.graph import Graph, complete_bipartite, complete_graph
from coinrig.pebble import (InvariantError, PebbleGame, _reach, pebble_basis_23,
                            pebble_rank_23)
from coinrig.sparsity import subsets_of_two_or_more

from test_exhaustive import _atlas


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


def test_contracted_images_are_the_family_count():
    # on a (2,3)-sparse graph with no edge inside S, the (2,3) game on G/S
    # (S merged into s = min S, parallel images kept) accepts an image
    # exactly when the count with capacity 0 at s and l = 1 does
    rng = random.Random(7)
    parallel = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        S = frozenset(rng.sample(range(n), rng.randint(2, min(4, n - 1))))
        pairs = [e for e in combinations(range(n), 2) if not set(e) <= S]
        rng.shuffle(pairs)
        edges = []
        for e in pairs[:rng.randint(0, len(pairs))]:
            if _is_23_sparse(n, edges + [e]):
                edges.append(e)
        s = min(S)
        cap = [2] * n
        cap[s] = 0
        images = [(s if a in S else a, s if b in S else b) for a, b in edges]
        parallel += len(images) - len({frozenset(e) for e in images})
        rng.shuffle(images)
        game = PebbleGame(n)
        accepted = []
        for a, b in images:
            if rng.random() < 0.5:
                a, b = b, a
            want = _fits_count(cap, 1, accepted + [(a, b)])
            assert game.try_insert(a, b) == want, (sorted(S), accepted, (a, b))
            if want:
                accepted.append((a, b))
            assert all(len(game.out[v]) + game.pebbles[v] == 2 for v in range(n))
        assert game.accepted == len(accepted)
    assert parallel > 100


class SearchOnlyGame(PebbleGame):
    """The (2,3) game with no count rule: every edge is decided by a search."""

    def gather(self, a, b):
        if a == b:
            raise ValueError("loop edge")
        p = self.pebbles
        while p[a] < 2 and p[a] + p[b] < 4 and self._fetch(a, b):
            pass
        while p[b] < 2 and p[a] + p[b] < 4 and self._fetch(b, a):
            pass
        return p[a] + p[b] >= 4

    def try_insert(self, a, b):
        if not self.gather(a, b):
            self.rejected.append((a, b))
            return False
        if not self.pebbles[a]:
            a, b = b, a
        self.accepted += 1
        self.pebbles[a] -= 1
        self.out[a].append(b)
        return True

    def contracted(self, S, bound):
        game = SearchOnlyGame(self.n)
        at = []
        for v, heads in enumerate(self.out):
            at += [(v, w) for w in heads if v in S or w in S]
            if v not in S:
                kept = [w for w in heads if w not in S]
                game.out[v] = kept
                game.pebbles[v] -= len(kept)
                game.accepted += len(kept)
        m = min(S)
        for a, b in at + self.rejected:
            a, b = m if a in S else a, m if b in S else b
            if game.accepted >= bound:
                break
            if a != b:
                game.try_insert(a, b)
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
            list(game.deg), game.accepted)


def _rank_of(n, edges):
    """The (2,3) rank of a multigraph's edges, by a game with no count rule."""
    game = SearchOnlyGame(n)
    for a, b in edges:
        game.try_insert(a, b)
    return game.accepted


def test_count_rule_accepts_what_the_search_accepts():
    # shuffled orders, both endpoint orders, repeated inserts, gathers
    # before inserts, and contracted states fed the accepted edges at S
    # and the rejected edges up to a bound, then merged images; both games
    # keep the same rejections, each copy's count is that of the
    # contraction's rank, and the reach sets and the contracted copy,
    # played on, leave the source game as it was, since check reads one
    # G' game for both of its sides
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
            assert a in R and b in R
        assert _state(game) == before
        if n < 3:
            continue
        assert game.rejected == ref.rejected
        S = frozenset(rng.sample(range(n), rng.randint(2, min(3, n - 1))))
        m = min(S)
        images = [(m if a in S else a, m if b in S else b) for a, b in edges]
        images = [(a, b) for a, b in images if a != b]
        bound = rng.randint(0, 2 * n)
        sub = game.contracted(S, bound)
        ref_sub = ref.contracted(S, bound)
        # the copy takes edges until it holds bound, and none once it does
        kept = game.contracted(S, 0).accepted
        full = game.contracted(S, len(edges) + kept).accepted
        assert full == _rank_of(n, images), (edges, sorted(S))
        assert sub.accepted == ref_sub.accepted == max(kept, min(bound, full))
        # the two copies may hold different edges, as the two orientations
        # list the edges at S in different orders; the copy played on
        # decides as a search-only game on the edges it holds
        twin = SearchOnlyGame(n)
        assert all(twin.try_insert(v, w) for v, heads in enumerate(sub.out) for w in heads)
        rng.shuffle(images)
        _play_both(sub, twin, images, rng)
        assert _state(game) == before


def _assert_copies_rank_the_contractions(g, T):
    """Each copy of G''s game with no bound short of it (b = |E|) holds the
    rank of G'/S, for every S inside T with |S| >= 2."""
    gp = g.delete_edges(combinations(T, 2))
    game = pebble_basis_23(g, T)[1]
    for S in subsets_of_two_or_more(T):
        copy = game.contracted(S, len(g.edges))
        assert copy.accepted == pebble_rank_23(gp.contract(S)), (g.edge_list(), sorted(S))


def test_copies_rank_every_contraction_over_the_graph_atlas():
    cases = 0
    for g in _atlas(6):
        for k in (2, 3):
            for T in combinations(range(g.n), k):
                _assert_copies_rank_the_contractions(g, frozenset(T))
                cases += 1
    assert cases == 6268


def test_copies_rank_every_contraction_on_random_graphs():
    rng = random.Random(29)
    for _ in range(120):
        g, T = random_instance(rng, 200, rng.choice([2, 3, 4]))
        _assert_copies_rank_the_contractions(g, T)


def _rebuilt(game, S, bound):
    """``PebbleGame.contracted`` as a rebuild from an empty game, vertex by
    vertex, counting the degrees of the edges it keeps: the reference the
    copy must match state for state."""
    copy = PebbleGame(game.n)
    at = []
    for v, heads in enumerate(game.out):
        if v in S:
            at += [(v, w) for w in heads]
            continue
        kept = [w for w in heads if w not in S]
        at += [(v, w) for w in heads if w in S]
        copy.out[v] = kept
        copy.pebbles[v] -= len(kept)
        copy.accepted += len(kept)
        copy.deg[v] += len(kept)
        for w in kept:
            copy.deg[w] += 1
    s = min(S)
    for a, b in at + game.rejected:
        if copy.accepted >= bound:
            break
        a, b = s if a in S else a, s if b in S else b
        if a != b:
            copy.try_insert(a, b)
    return copy


def test_contracted_copy_matches_a_rebuild_from_empty():
    # every graph on at most 6 vertices, played in a shuffled order with
    # shuffled endpoints, and random near-threshold G' games up to 60
    # vertices; for every S inside T with |S| >= 2, copies that play no
    # edge, some edges and every edge hold the rebuild's state, the source
    # game unchanged
    rng = random.Random(53)
    games = []
    for g in _atlas(6):
        if g.n < 2:
            continue
        game = PebbleGame(g.n)
        edges = g.edge_list()
        rng.shuffle(edges)
        for a, b in edges:
            game.try_insert(*((a, b) if rng.random() < 0.5 else (b, a)))
        games.append((game, frozenset(rng.sample(range(g.n), min(g.n, rng.randint(2, 4))))))
    for _ in range(60):
        g, T = random_instance(rng, 60, rng.choice([2, 3, 4]))
        games.append((pebble_basis_23(g, T)[1], T))
    copies = 0
    for game, T in games:
        before = _state(game)
        m = game.accepted + len(game.rejected)
        for S in subsets_of_two_or_more(T):
            for bound in (0, rng.randint(0, m), m):
                copy, ref = game.contracted(S, bound), _rebuilt(game, S, bound)
                assert _state(copy) == _state(ref), (game.out, sorted(S), bound)
                assert copy.rejected == ref.rejected
                copies += 1
        assert _state(game) == before
    assert copies > 1500


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
    basis, game = pebble_basis_23(g, frozenset())
    assert len(basis) == 2 * g.n - 3 and not game.rejected
    assert fetches == []


def test_second_insert_of_an_edge():
    # the game rejects ab twice, though both ends have degree 1
    game = PebbleGame(3)
    assert game.try_insert(0, 1)
    assert not game.gather(1, 0) and not game.try_insert(1, 0)
    assert game.deg == [1, 1, 0] and game.accepted == 1


def _eager_basis_23(g, T):
    """``pebble_basis_23`` with each rejection proved as it is made: R, the
    vertices its failed gather reached, recounted from the accepted list so
    far; every edge is played, also once the game holds 2n - 3."""
    game = PebbleGame(g.n)
    basis = []
    up = [[] for _ in range(g.n)]
    for a, b in g.edge_list():
        if a in T and b in T:
            continue
        if game.try_insert(a, b):
            basis.append((a, b))
            up[a].append(b)
            continue
        R = _reach(game.out, a, b)
        if sum(len(R.intersection(up[v])) for v in R) < 2 * len(R) - 3:
            raise InvariantError(f"rejected edge ({a}, {b})")
    return basis, game


def _kind_of_game(g, T):
    """Check the game against the eager one: the same basis, the same
    rejections in the same order and the same count; and name its kind."""
    basis, game = pebble_basis_23(g, T)
    ref_basis, ref = _eager_basis_23(g, T)
    assert basis == ref_basis, (g.edge_list(), sorted(T))
    assert game.rejected == ref.rejected and game.accepted == ref.accepted == len(basis)
    if len(basis) == 2 * g.n - 3:
        return "full"
    return "short, rejecting" if game.rejected else "short"


def test_proof_after_play_matches_the_eager_game():
    # every graph on at most 6 vertices with every T of at most 3 vertices,
    # and random near-threshold graphs up to 60 vertices: full games, which
    # prove nothing after play, and short ones, which recount each refusal
    kinds = Counter()
    for g in _atlas(6):
        for k in range(4):
            for T in combinations(range(g.n), k):
                kinds[_kind_of_game(g, frozenset(T))] += 1
    assert kinds == {"full": 1183, "short": 5871, "short, rejecting": 590}
    kinds.clear()
    rng = random.Random(61)
    for _ in range(300):
        g, T = random_instance(rng, 60, rng.choice([0, 1, 2, 3]))
        kinds[_kind_of_game(g, T)] += 1
    assert kinds == {"full": 156, "short": 24, "short, rejecting": 120}


def _spy(monkeypatch):
    """Record each ``_reach``, ``gather`` and ``try_insert`` call, with
    gather's answer."""
    calls = []
    real_reach, real_gather = coinrig.pebble._reach, PebbleGame.gather
    real_insert = PebbleGame.try_insert

    def reach(out, a, b):
        calls.append(("reach", a, b))
        return real_reach(out, a, b)

    def gather(game, a, b):
        took = real_gather(game, a, b)
        calls.append(("gather", a, b, took))
        return took

    def try_insert(game, a, b):
        calls.append(("insert", a, b))
        return real_insert(game, a, b)

    monkeypatch.setattr(coinrig.pebble, "_reach", reach)
    monkeypatch.setattr(PebbleGame, "gather", gather)
    monkeypatch.setattr(PebbleGame, "try_insert", try_insert)
    return calls


def test_short_games_recount_each_refusal_after_play(monkeypatch):
    calls = _spy(monkeypatch)
    # a full game: K5's game holds 7 edges after its first 7 inserts, and
    # rejects the other 3 with no search and no recount
    basis, game = pebble_basis_23(complete_graph(5), frozenset())
    assert len(basis) == 7 and game.rejected == [(2, 3), (2, 4), (3, 4)]
    assert [c[0] for c in calls] == ["insert"] * 7
    # a short game whose final reach set recounts at once: no gather
    calls.clear()
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)])
    basis, game = pebble_basis_23(g, frozenset())
    assert len(basis) == 6 and game.rejected == [(2, 4)]
    assert calls[7:] == [("reach", 2, 4)]
    # a short game whose final reach set of (3, 5) holds a free pebble: its
    # gather fails, and the reach set taken after it recounts
    calls.clear()
    g = Graph(7, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4),
                  (2, 6), (3, 5), (4, 6), (5, 6)])
    basis, game = pebble_basis_23(g, frozenset({2, 4, 5}))
    assert len(basis) == 10 and game.rejected == [(3, 5)]
    assert calls[11:] == [("reach", 3, 5), ("gather", 3, 5, False), ("reach", 3, 5)]
