import random
from itertools import combinations
from math import comb

import pytest

from coinrig import sparsity
from coinrig.checks import random_instance
from coinrig.constructions import henneberg_random
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import generic_rank
from coinrig.matroid import greedy_rank, mt_oracle
from coinrig.pebble import PebbleGame, pebble_basis_23
from coinrig.sparsity import (_COVER_LB, AugmentedFamily, CompatibleFamily,
                              StrongSparsityChecker, _bits, is_S_sparse,
                              is_strongly_T_sparse, min_thin_cover,
                              subsets_of_two_or_more,
                              val_augmented, val_family, val_set)

from test_linalg import henneberg_plus

S2 = frozenset({0, 1})
S3 = frozenset({0, 1, 2})


def fig4():
    return Graph(8, [(4, 3), (4, 0), (4, 1), (5, 3), (5, 0), (5, 1),
                     (6, 3), (6, 0), (6, 1), (7, 4), (7, 5), (2, 7), (2, 6)],
                 ("u", "v", "w", "a", "b", "c", "d", "e"))


def partial_partitions(elems: tuple[int, ...]):
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


def enumerate_compatible_families(g, S):
    """Every S-compatible family whose members pairwise intersect exactly in S."""
    ss = frozenset(S)
    others = tuple(v for v in range(g.n) if v not in ss)
    for blocks in partial_partitions(others):
        if blocks:
            yield CompatibleFamily(ss, tuple(ss | b for b in blocks))


def random_graph(rng, n_lo=3, n_hi=7, near_threshold=True):
    n = rng.randint(n_lo, n_hi)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if near_threshold:
        m = max(0, min(len(pairs), 2 * n - 3 + rng.randint(-3, 3)))
    else:
        m = rng.randint(0, len(pairs))
    return Graph(n, rng.sample(pairs, m))


# -- values --------------------------------------------------------------


def test_val_set():
    assert val_set({0, 1}, S3) == 0          # X inside S
    assert val_set(range(5), {9}) == 7       # 2*5-3
    assert val_set({0, 1}, {0}) == 1
    with pytest.raises(ValueError):
        val_set({0}, {0, 1})


def test_val_family_known_values():
    # three members S u {w}, |S| = 3: 3*(2-1) + 2*2 = 7
    fam = CompatibleFamily(S3, (S3 | {3}, S3 | {4}, S3 | {5}))
    assert val_family(fam) == 7
    # {T u {z}, V - z} on n vertices: 2n - 4
    for n in (6, 8, 9):
        V = frozenset(range(n))
        z = n - 1
        fam = CompatibleFamily(S3, (S3 | {z}, V - {z}))
        assert val_family(fam) == 2 * n - 4
    # |S| = 2, single member with one extra vertex
    assert val_family(CompatibleFamily(S2, (S2 | {5},))) == 3


def test_compatible_family_validation():
    with pytest.raises(ValueError, match="proper superset"):
        CompatibleFamily(S2, (S2,))
    with pytest.raises(ValueError, match="at least one member"):
        CompatibleFamily(S2, ())
    with pytest.raises(ValueError, match="nonempty"):
        CompatibleFamily(frozenset(), (frozenset({1}),))


def test_val_augmented():
    aug = AugmentedFamily(S2, None, (frozenset({2, 3}),))
    assert val_augmented(aug) == 1
    # empty family part: reduces to the plain 1-thin cover objective
    cover = AugmentedFamily(S2, None, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))
    assert val_augmented(cover) == 3 + 3
    fam = CompatibleFamily(S3, (S3 | {3}, S3 | {4}, S3 | {5}))
    aug = AugmentedFamily(S3, fam, (frozenset({6, 7, 8}),))
    assert val_augmented(aug) == 7 + 3


def test_one_thin_conditions():
    fam = CompatibleFamily(S2, (S2 | {2}, S2 | {3}))
    good = AugmentedFamily(S2, fam, (frozenset({4, 5}),))
    assert good.is_one_thin()
    overlap_x = AugmentedFamily(S2, None,
                                (frozenset({2, 3, 4}), frozenset({3, 4, 5})))
    assert not overlap_x.is_one_thin()  # T.1
    bad_family = AugmentedFamily(S2, CompatibleFamily(S2, (S2 | {2, 3}, S2 | {3, 4})),
                                 ())
    assert not bad_family.is_one_thin()  # T.2
    bad_x = AugmentedFamily(S2, fam, (frozenset({2, 3}),))
    assert not bad_x.is_one_thin()  # T.3


# -- sparsity decisions ----------------------------------------------------


def test_is_S_sparse_edge_inside_S():
    v = is_S_sparse(complete_graph(4), {0, 1})
    assert v is not None and v.kind == "set"
    assert v.witness == frozenset({0, 1}) and (v.lhs, v.rhs) == (1, 0)


def test_is_S_sparse_fig4_full_T_passes():
    assert is_S_sparse(fig4(), {0, 1, 2}) is None


def test_is_S_sparse_laman_cases():
    tri_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_S_sparse(tri_pendant, {0}) is None
    assert is_S_sparse(complete_graph(4), {0}) is not None  # K4 overfull


def test_is_S_sparse_errors():
    with pytest.raises(ValueError, match="nonempty"):
        is_S_sparse(complete_graph(3), set())
    # a verdict walks no vertex sets; naming a violation's witness does
    assert is_S_sparse(Graph(13, [(0, 1)]), {0}) is None
    with pytest.raises(ValueError, match="graph has 13 vertices, enumeration cap is 12"):
        is_S_sparse(Graph(13, complete_graph(4).edges), {0})


def test_fig4_family_violation():
    # the deletion/contraction counterexample fails exactly at S = {u,v}:
    # the three common neighbours b, c, d give i = 6 > 5 = val
    v = is_S_sparse(fig4(), {0, 1})
    assert v is not None and v.kind == "family"
    assert [sorted(H) for H in v.witness.members] == [[0, 1, 4], [0, 1, 5], [0, 1, 6]]
    assert (v.lhs, v.rhs) == (6, 5)


def test_strongly_T_sparse_fig4():
    v = is_strongly_T_sparse(fig4(), {0, 1, 2})
    assert v is not None and v.S == frozenset({0, 1})
    assert v.kind == "family"


def test_strongly_T_sparse_basics():
    assert is_strongly_T_sparse(complete_graph(3), {0, 1, 2}) is not None
    tri_pendant = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_strongly_T_sparse(tri_pendant, {3}) is None
    v = is_strongly_T_sparse(complete_graph(4), {0, 1, 2})
    assert v.S == frozenset({0})  # K4 is Laman-overfull: smallest S fails first
    with pytest.raises(ValueError, match="invalid vertex 9"):
        is_strongly_T_sparse(complete_graph(4), {0, 9})  # not a violation at S = {0}


def test_matches_enumeration_reference():
    # the candidate-block engine must agree with literal enumeration of
    # sets and pairwise-exactly-S families
    rng = random.Random(42)
    for _ in range(250):
        g = random_graph(rng, 3, 6)
        S = frozenset(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        fast = is_S_sparse(g, S)
        ref = None
        for k in range(2, g.n + 1):
            for X in combinations(range(g.n), k):
                xs = frozenset(X)
                cap = 0 if xs <= S else 2 * len(xs) - 3
                if g.induced_edge_count(xs) > cap:
                    ref = ("set", xs)
                    break
            if ref:
                break
        if ref is None:
            for fam in enumerate_compatible_families(g, S):
                covered = set()
                for H in fam.members:
                    covered.update(e for e in g.edges if e[0] in H and e[1] in H)
                if len(covered) > val_family(fam):
                    ref = ("family", fam)
                    break
        assert (fast is None) == (ref is None), (g.edge_list(), sorted(S))
        if fast is not None:
            # recheck the returned witness arithmetic independently
            if fast.kind == "set":
                assert g.induced_edge_count(fast.witness) == fast.lhs > fast.rhs
            else:
                covered = set()
                for H in fast.witness.members:
                    covered.update(e for e in g.edges if e[0] in H and e[1] in H)
                assert len(covered) == fast.lhs > fast.rhs == val_family(fast.witness)


def test_checker_agrees_with_public_decision():
    # both play pebble games, so each is held to the game-free enumeration
    rng = random.Random(43)
    for _ in range(150):
        g = random_graph(rng, 3, 7)
        T = frozenset(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
        hit = _reference_strong(g, T)
        v = is_strongly_T_sparse(g, T)
        assert (v and v.to_dict()) == (hit and _reference_S_sparse(g, hit[0])), \
            (g.edge_list(), sorted(T))
        assert StrongSparsityChecker(g.n, T).accepts_all(g.edge_list()) == (hit is None)


def _reference_family(g, S):
    """Unpruned lexicographic block search: the first disjoint collection of
    blocks B, tried in order of their vertex tuples, whose weights
    w(B) = (2|S|-2) - (2|S|B|-3 - i(S|B)) sum past 2|S|-2; each i(S|B)
    counted from the edge set."""
    thresh = 2 * len(S) - 2
    others = [v for v in range(g.n) if v not in S]
    blocks = []
    for k in range(1, len(others) + 1):
        for B in combinations(others, k):
            b = sum(1 << v for v in B)
            w = thresh - (2 * (len(S) + k) - 3 - g.induced_edge_count(S | set(B)))
            if w >= 1:
                blocks.append((B, b, w))
    blocks.sort()

    def dfs(start, used, acc, chosen):
        for idx in range(start, len(blocks)):
            B, b, w = blocks[idx]
            if b & used:
                continue
            if acc + w > thresh:
                return chosen + [B]
            hit = dfs(idx + 1, used | b, acc + w, chosen + [B])
            if hit:
                return hit
        return None

    return dfs(0, 0, 0, [])


def _reference_S_sparse(g, S):
    """is_S_sparse(g, S).to_dict() from a literal set scan and the unpruned search."""
    sets = [X for k in range(2, g.n + 1) for X in combinations(range(g.n), k)
            if g.induced_edge_count(X) > (0 if set(X) <= S else 2 * k - 3)]
    if sets:
        X = min(sets)
        return {"kind": "set", "S": sorted(S), "witness": list(X),
                "lhs": g.induced_edge_count(X), "rhs": val_set(X, S)}
    blocks = _reference_family(g, S)
    if blocks is None:
        return None
    fam = CompatibleFamily(S, tuple(S | frozenset(B) for B in blocks))
    lhs = sum(g.induced_edge_count(H) for H in fam.members)
    return {"kind": "family", "S": sorted(S), "witness": [sorted(H) for H in fam.members],
            "lhs": lhs, "rhs": val_family(fam)}


def _reference_strong(g, T):
    """(S, kind) of the first violation that is_strongly_T_sparse(g, T)
    reports, or None, by enumeration: no pebble game.  Every singleton S
    has the (2,3) set capacities and no family past them, so {min T}
    stands for all.  Once those hold, a set breaks a larger S's capacity
    only by lying inside S with an edge, and then so does a pair inside S,
    which comes first.  _reference_S_sparse(g, S) names the violation."""
    if any(g.induced_edge_count(X) > 2 * k - 3
           for k in range(2, g.n + 1) for X in combinations(range(g.n), k)):
        return frozenset({min(T)}), "set"
    for S in subsets_of_two_or_more(T):
        if g.induced_edge_count(S):
            return S, "set"
        if _reference_family(g, S):
            return S, "family"
    return None


def _hinged_graph(rng):
    """A Laman graph less its T-internal edges, whose other vertices gain
    edges to several T vertices: common neighbours of S breed family
    violations."""
    n = rng.randint(4, 8)
    T = frozenset(rng.sample(range(n), rng.randint(2, min(4, n - 1))))
    g = henneberg_random(n, rng.getrandbits(32)).delete_edges(combinations(T, 2))
    extra = [(t, x) for x in range(n) if x not in T and rng.random() < 0.35
             for t in rng.sample(sorted(T), rng.randint(2, len(T)))]
    return g.add_edges(extra), T


def test_witnesses_match_unpruned_lexicographic_search():
    rng = random.Random(45)
    families = set()
    for i in range(400):
        if i % 2:
            g, T = _hinged_graph(rng)
        else:
            g = random_graph(rng, 3, 8)
            T = frozenset(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
        first = None
        singletons = [frozenset({v}) for v in sorted(T)]
        for S in singletons + subsets_of_two_or_more(T):
            ref = _reference_S_sparse(g, S)
            v = is_S_sparse(g, S)
            assert (v and v.to_dict()) == ref, (g.edge_list(), sorted(S))
            first = first or ref
            if ref and ref["kind"] == "family":
                families.add(len(S))
        v = is_strongly_T_sparse(g, T)
        assert (v and v.to_dict()) == first, (g.edge_list(), sorted(T))
    assert families == {2, 3, 4}


def test_checker_decides_each_edge_like_the_public_decision():
    # try_add tests only the sets and families through the new edge; every
    # verdict, and the public decision's, must still be the full
    # enumeration on the accepted edges plus it
    rng = random.Random(46)
    kinds = []
    for i in range(300):
        if i % 2:
            g, T = _hinged_graph(rng)
        else:
            g = random_graph(rng, 3, 8, near_threshold=i % 4 == 0)
            T = frozenset(rng.sample(range(g.n), rng.randint(1, min(4, g.n))))
        order = g.edge_list()
        rng.shuffle(order)
        chk = StrongSparsityChecker(g.n, T)
        accepted = []
        for e in order:
            h = Graph(g.n, accepted + [e])
            hit = _reference_strong(h, T)
            v = is_strongly_T_sparse(h, T)
            assert (v and v.to_dict()) == (hit and _reference_S_sparse(h, hit[0])), \
                (accepted, e, sorted(T))
            assert chk.try_add(*e) == (hit is None), (accepted, e, sorted(T))
            if hit is None:
                accepted.append(e)
            else:
                kinds.append(hit[1])
    assert kinds.count("set") > 100 and kinds.count("family") > 20


def test_decisions_walk_vertex_sets_only_to_name_a_violation(monkeypatch):
    # counts (kind, witness walks, full G games) per decision; a set walk
    # walks once per least vertex it tries, and each one below finds its
    # witness among the sets holding vertex 0
    walks, games = [], []
    walk = sparsity._walk

    def counting_walk(g, *args):
        walks.append(g)
        return walk(g, *args)

    def counting_game(g, T):
        games.append(g)
        return pebble_basis_23(g, T)

    monkeypatch.setattr(sparsity, "_walk", counting_walk)
    monkeypatch.setattr(sparsity, "pebble_basis_23", counting_game)

    def counts(decide, g, T):
        walks.clear()
        games.clear()
        v = decide(g, T)
        return v and v.kind, len(walks), len(games)

    T = {0, 2, 4, 6}
    path = Graph(8, [(v, v + 1) for v in range(7)])
    assert counts(is_strongly_T_sparse, path, T) == (None, 0, 1)
    assert counts(is_S_sparse, path, T) == (None, 0, 1)
    # an edge inside a pair S is its own witness; is_S_sparse must still
    # walk to the lexicographically first set, and plays no game
    chord = path.add_edges([(0, 2)])
    assert counts(is_strongly_T_sparse, chord, T) == ("set", 0, 1)
    assert counts(is_S_sparse, chord, T) == ("set", 1, 0)
    # a set violation plays the (2,3) game once and does not replay it
    assert counts(is_strongly_T_sparse, complete_graph(4), {0, 1}) == ("set", 1, 1)
    assert counts(is_S_sparse, complete_graph(4), {0}) == ("set", 1, 1)
    # a family witness takes one walk, over the blocks of V minus S
    assert counts(is_strongly_T_sparse, fig4(), {0, 1, 2}) == ("family", 1, 1)
    assert counts(is_S_sparse, fig4(), {0, 1}) == ("family", 1, 1)


def test_decisions_copy_each_g_s_game_from_the_g_game(monkeypatch):
    # each of the eleven G/S games is a copy of G's final game that plays
    # only the edges at S (338 inserts in all); replaying every edge into
    # each would take 2,844
    g = henneberg_random(120, 1)
    inserts = []
    real = PebbleGame.try_insert
    monkeypatch.setattr(PebbleGame, "try_insert",
                        lambda game, a, b: inserts.append((a, b)) or real(game, a, b))
    assert is_strongly_T_sparse(g, {10, 50, 100, 110}) is None
    assert len(inserts) < 2 * len(g.edges)


def _cold_family_breaks(g, S):
    """The family condition with the G/S game played from scratch on the
    image of every edge, S merged into min S and parallel images kept."""
    s, game = min(S), PebbleGame(g.n)
    for a, b in g.edge_list():
        game.try_insert(s if a in S else a, s if b in S else b)
    return len(g.edges) - game.accepted > 2 * len(S) - 2


def _warm_and_cold_agree(g, sets) -> list[bool]:
    """The verdicts of _family_breaks on the (2,3)-sparse g for each S of
    sets with no edge inside, checked against the cold replay; the shared
    G game is left as it was."""
    game = pebble_basis_23(g, frozenset())[1]
    assert game.accepted == len(g.edges) and not game.rejected
    before = ([list(heads) for heads in game.out], list(game.pebbles),
              list(game.deg), game.accepted)
    verdicts = []
    for S in sets:
        if not g.induced_edge_count(S):
            warm = sparsity._family_breaks(game, S)
            assert warm == _cold_family_breaks(g, S), (g.edge_list(), sorted(S))
            verdicts.append(warm)
    assert ([list(heads) for heads in game.out], list(game.pebbles),
            list(game.deg), game.accepted) == before
    return verdicts


def test_warm_family_games_match_cold_replays_on_random_sparse_graphs():
    # the bases of graphs near the rigidity threshold, up to 200 vertices;
    # S is a vertex and one or two vertices two steps from it, since sets
    # whose vertices share neighbours are the ones that break
    rng = random.Random(31)
    verdicts = []
    graphs = [henneberg_plus(n, seed) for n in (30, 60, 120, 200) for seed in range(3)]
    graphs += [random_instance(rng, 60, 3)[0] for _ in range(60)]
    for g in graphs:
        sparse = Graph(g.n, pebble_basis_23(g, frozenset())[0])
        sets = []
        for v in rng.sample(range(g.n), min(g.n, 20)):
            ring = {x for w in sparse.neighbors(v) for x in sparse.neighbors(w)}
            ring = sorted(ring - {v, *sparse.neighbors(v)})
            if ring:
                k = min(len(ring), rng.choice((1, 2)))
                sets.append(frozenset({v, *rng.sample(ring, k)}))
        verdicts += _warm_and_cold_agree(sparse, sets)
    assert len(verdicts) > 1000 and verdicts.count(True) > 150


def test_set_witness_is_first_in_witness_order_not_minimal():
    # K5 on {1..5} plus the isolated vertex 0: K4 on {1..4} already breaks
    # its capacity, but every set holding 0 comes first, and the first of
    # them to break it is the whole vertex set
    k5 = Graph(6, [(a, b) for a, b in combinations(range(1, 6), 2)])
    for decide in (is_S_sparse, is_strongly_T_sparse):
        assert decide(k5, {0}).to_dict() == {
            "kind": "set", "S": [0], "witness": [0, 1, 2, 3, 4, 5],
            "lhs": 10, "rhs": 9}


def test_set_witness_late_in_witness_order_at_the_cap():
    # a path on 0..7 plus K4 on {8..11}: no set with a vertex below 8
    # breaks its capacity, so the search passes all but a few of the 4,095
    # sets before it reaches the K4
    g = Graph(12, [(v, v + 1) for v in range(7)]
              + list(combinations(range(8, 12), 2)))
    for decide in (is_S_sparse, is_strongly_T_sparse):
        v = decide(g, {0})
        assert (v.kind, sorted(v.witness), v.lhs, v.rhs) == ("set", [8, 9, 10, 11], 6, 5)


@pytest.mark.parametrize("n", [13, 40, 200])
def test_decisions_answer_past_the_enumeration_cap(n):
    # no witness walk could cover these graphs: on a greedy mt base the
    # decisions and the mt oracle say sparse, and one rejected edge more is
    # a violation that both see, refused for want of its witness
    rng = random.Random(n)
    for t_size in (1, 2, 3):
        T = frozenset(rng.sample(range(n), t_size))
        others = [v for v in range(n) if v not in T]
        hinges = [(t, x) for x in rng.sample(others, 4) for t in T]
        g = henneberg_random(n, rng.getrandbits(32)).delete_edges(combinations(T, 2)).add_edges(hinges)
        base = Graph(n, greedy_rank(mt_oracle(g, T)).base)
        assert mt_oracle(base, T).test(base.edges)
        assert is_strongly_T_sparse(base, T) is None
        assert is_S_sparse(base, T) is None
        worse = base.add_edges([min(g.edges - base.edges)])
        assert not mt_oracle(worse, T).test(worse.edges)
        with pytest.raises(ValueError, match=f"graph has {n} vertices, enumeration cap is 12"):
            is_strongly_T_sparse(worse, T)


def test_necessity_on_algebraically_independent_inputs():
    # independence in the coincident rigidity matroid forces strong sparsity
    rng = random.Random(44)
    for seed in range(60):
        g = random_graph(rng, 4, 7)
        T = frozenset(rng.sample(range(g.n), rng.randint(1, 3)))
        rep = generic_rank(g, T, 2, seed=seed)
        if rep.independent:
            assert is_strongly_T_sparse(g, T) is None, (g.edge_list(), sorted(T))


def test_thin_family_bounds_covered_edges():
    # on S-sparse graphs a 1-thin augmented family covers at most its value
    rng = random.Random(45)
    tested = 0
    while tested < 80:
        g = random_graph(rng, 4, 7)
        S = frozenset(rng.sample(range(g.n), 2))
        if is_S_sparse(g, S) is not None:
            continue
        others = [v for v in range(g.n) if v not in S]
        rng.shuffle(others)
        cut = rng.randint(0, len(others))
        blocks, pool = [], others[:cut]
        while pool:
            k = rng.randint(1, len(pool))
            blocks.append(frozenset(pool[:k]))
            pool = pool[k:]
        fam = CompatibleFamily(S, tuple(S | b for b in blocks)) if blocks else None
        hu = frozenset().union(*fam.members) if fam else frozenset()
        xsets = []
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(2, max(2, g.n - 1))
            X = frozenset(rng.sample(range(g.n), min(size, g.n)))
            if len(X & hu) > 1 or any(len(X & Y) > 1 for Y in xsets):
                continue
            xsets.append(X)
        aug = AugmentedFamily(S, fam, tuple(xsets))
        assert aug.is_one_thin()
        assert len(aug.covers() & g.edges) <= val_augmented(aug)
        tested += 1


def test_tight_set_lattice():
    # unions and intersections of overlapping S-tight sets stay S-tight
    rng = random.Random(46)
    found = 0
    for _ in range(300):
        g = random_graph(rng, 4, 7)
        S = frozenset(rng.sample(range(g.n), 2))
        if is_S_sparse(g, S) is not None:
            continue
        tight = []
        for k in range(2, g.n + 1):
            for X in combinations(range(g.n), k):
                xs = frozenset(X)
                if xs <= S:
                    continue
                if g.induced_edge_count(xs) == val_set(xs, S):
                    tight.append(xs)
        for X, Y in combinations(tight, 2):
            if len(X & Y) >= 2:
                found += 1
                assert not (X & Y <= S)
                assert g.induced_edge_count(X | Y) == val_set(X | Y, S)
                assert g.induced_edge_count(X & Y) == val_set(X & Y, S)
        if found > 200:
            break
    assert found > 50  # the search must actually exercise the property


# -- cover minima --------------------------------------------------------


def masks_of(g):
    return [(1 << a) | (1 << b) for a, b in g.edge_list()]


def test_ly_rank_small_cases():
    # the 1-thin cover minimum is the rank in R_2 (Lovasz-Yemini)
    assert min_thin_cover(4, masks_of(complete_graph(4)))[0] == 5
    two_triangles = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert min_thin_cover(5, masks_of(two_triangles))[0] == 6
    assert min_thin_cover(3, [])[0] == 0


def test_cover_bounds_reach_every_edge_count_under_the_cap():
    # one table, sized by the cap: a capped graph has at most C(12, 2)
    # distinct edges, and a bigger graph is refused before any lookup
    assert len(_COVER_LB) == comb(sparsity.DEFAULT_CAP, 2) + 1
    assert _COVER_LB[-1] == 2 * sparsity.DEFAULT_CAP - 3
    assert min_thin_cover(12, masks_of(complete_graph(12)))[0] == 21
    with pytest.raises(ValueError, match="graph has 13 vertices, enumeration cap is 12"):
        min_thin_cover(13, [0b11])


def reference_min_thin_cover(n: int, edge_masks: list[int], forbidden: int = 0,
                   cap_val: int | None = None):
    """``min_thin_cover`` as it was before its candidates were generated
    under constraints: every subset of the uncovered support is enumerated,
    filtered, then sorted biggest first.  Kept verbatim as the reference.

    Min total (2|X|-3) over 1-thin set families covering the given edges.

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


def _random_cover_input(rng):
    n = rng.randint(3, 9)
    pairs = [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]
    edges = [rng.choice(pairs) for _ in range(rng.randint(0, len(pairs) + 2))]
    forbidden = 0
    for v in range(n):
        if rng.random() < rng.choice((0.0, 0.2, 0.4)):
            forbidden |= 1 << v
    cap_val = None if rng.random() < 0.5 else rng.randint(0, len(edges) + 2)
    return n, edges, forbidden, cap_val


def test_min_thin_cover_matches_reference():
    # same value and same sets, in the same order, on random inputs with
    # duplicate edges, blocked vertices and incumbent caps
    rng = random.Random(11)
    found = 0
    for _ in range(2000):
        n, edges, forbidden, cap_val = _random_cover_input(rng)
        got = sparsity.min_thin_cover(n, list(edges), forbidden, cap_val)
        assert got == reference_min_thin_cover(n, list(edges), forbidden, cap_val), \
            (n, edges, forbidden, cap_val)
        found += got is not None and len(got[1]) < len(set(edges))
    assert found > 150  # many answers use a set bigger than a pair
