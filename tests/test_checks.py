import random
from itertools import combinations
from types import SimpleNamespace

import pytest

import coinrig.linalg
from coinrig import checks
from coinrig.checks import (_failing_S, check_coincident_rigidity,
                            coincident_rigid_combinatorial, conjecture_search,
                            cross_validate, fixtures, random_instance)
from coinrig.constructions import henneberg_random
from coinrig.graph import complete_graph
from coinrig.linalg import (generic_rank, rank_exact, rigidity_matrix,
                            rigidity_target, sample_T_coincident)
from coinrig.matroid import mt_oracle
from coinrig.pebble import PebbleGame, pebble_basis_23, pebble_rank_23
from coinrig.sparsity import subsets_of_two_or_more

from test_exhaustive import _atlas
from test_linalg import modp_rank
from test_linalg import henneberg_plus


def test_fixture_shapes():
    fx = fixtures()
    assert set(fx) == {f"fig3-{i}" for i in range(1, 8)} | {"fig4", "k55"}
    for i in range(1, 8):
        f = fx[f"fig3-{i}"]
        assert (f.graph.n, len(f.graph.edges)) == (9, 15)
        assert f.T == frozenset({0, 1, 2})
        assert f.graph.delete_edges(combinations(f.T, 2)) == f.graph  # no T-internal edges
    assert (fx["fig4"].graph.n, len(fx["fig4"].graph.edges)) == (8, 13)
    assert (fx["k55"].graph.n, len(fx["k55"].graph.edges)) == (10, 25)
    # the coincident pair sits on opposite sides of the bipartition
    u, v = sorted(fx["k55"].T)
    assert u < 5 <= v


def test_fig3_printed_realization():
    f = fixtures()["fig3-1"]
    assert f.realization is not None
    for v in f.T:
        assert f.realization.point(v) == f.realization.point(0)
    M = rigidity_matrix(f.graph, f.realization)
    assert M.shape == (15, 18)
    assert rank_exact(M) == 15
    assert modp_rank(M) == 15


def test_fig3_graphs_all_verdicts_true():
    for i in range(1, 8):
        f = fixtures()[f"fig3-{i}"]
        assert coincident_rigid_combinatorial(f.graph, f.T) is None, f.name
        rep = generic_rank(f.graph, f.T, 2, seed=i)
        assert rep.rigid and rep.rank == 15


def test_fig4_verdicts():
    f = fixtures()["fig4"]
    assert coincident_rigid_combinatorial(f.graph, f.T) == frozenset({0, 1})
    rep = generic_rank(f.graph, f.T, 2, seed=9)
    assert rep.rigid is False
    assert rep.rank == 12
    both = check_coincident_rigidity(f.graph, f.T)
    assert both.combinatorial == both.algebraic is False
    doc = both.to_dict()
    assert doc["failing_S"] == [0, 1] and doc["labels"][:3] == ["u", "v", "w"]


def test_k4_T2_verdicts():
    verdict = check_coincident_rigidity(complete_graph(4), {0, 1}, seed=2)
    assert verdict.combinatorial and verdict.algebraic


def test_combinatorial_T_size_guard():
    with pytest.raises(ValueError):
        coincident_rigid_combinatorial(complete_graph(4), {0})
    with pytest.raises(ValueError):
        coincident_rigid_combinatorial(complete_graph(6), {0, 1, 2, 3})


def test_characterization_equivalence_random_corpus():
    rng = random.Random(6)
    for _ in range(40):
        g, T = random_instance(rng, 7, rng.choice([2, 3]))
        both = check_coincident_rigidity(g, T, seed=rng.getrandbits(16))
        assert both.combinatorial == both.algebraic, (g.edge_list(), sorted(T))


def _replayed_combinatorial(g, T):
    """The verdict with every G'/S played from scratch on its own edges."""
    gp = g.delete_edges(combinations(T, 2))
    if pebble_rank_23(gp) != rigidity_target(gp.n, 2):
        return frozenset()
    for s in subsets_of_two_or_more(T):
        gc = gp.contract(s)
        if pebble_rank_23(gc) != rigidity_target(gc.n, 2):
            return s
    return None


def _assert_contraction_games_match(g, T):
    # G''s game and each copy of it onto G'/S, fed up to the target, as
    # _failing_S builds it
    gp = g.delete_edges(combinations(T, 2))
    g_prime_game = pebble_basis_23(g, T)[1]
    for s in [frozenset()] + subsets_of_two_or_more(T):
        gs = gp.contract(s) if s else gp
        target = rigidity_target(gs.n, 2)
        game = g_prime_game.contracted(s, target) if s else g_prime_game
        assert game.n == gp.n
        assert game.accepted == pebble_rank_23(gs), (g.edge_list(), sorted(T), sorted(s))
        assert all(len(heads) + p == 2 for heads, p in zip(game.out, game.pebbles))
        oriented = {tuple(sorted((v, w))) for v, heads in enumerate(game.out) for w in heads}
        if s:
            # S's other vertices keep two pebbles and no edge at either end
            idle = s - {min(s)}
            assert all(game.pebbles[v] == 2 for v in idle)
            assert not idle & {v for e in oriented for v in e}
            cmap = gp.contraction_map(s)
            oriented = {tuple(sorted((cmap[v], cmap[w]))) for v, w in oriented}
        assert len(oriented) == game.accepted and oriented <= gs.edges
    assert coincident_rigid_combinatorial(g, T) == _replayed_combinatorial(g, T)


def test_contraction_games_match_replayed_games_over_the_graph_atlas():
    pairs = 0
    for g in _atlas(6):
        for k in (2, 3):
            for T in combinations(range(g.n), k):
                _assert_contraction_games_match(g, frozenset(T))
                pairs += 1
    assert pairs == 6268


def test_contraction_games_match_replayed_games_on_random_graphs():
    rng = random.Random(17)
    for _ in range(150):
        g, T = random_instance(rng, 60, rng.choice([2, 3]))
        _assert_contraction_games_match(g, T)


def test_contraction_games_match_replayed_games_above_the_exact_limit():
    for n in (31, 45, 60, 120):
        for k in (2, 3):
            for seed in range(3):
                T = frozenset(random.Random(n + seed).sample(range(n), k))
                _assert_contraction_games_match(henneberg_plus(n, seed), T)


def test_games_play_edge_list_order_then_edges_at_S_then_rejected(monkeypatch):
    # the G' game (pebble_basis_23) inserts the edges of g not inside T in
    # edge_list order and keeps its rejected edges in that order; _failing_S
    # plays no G' game, and copies it onto G'/S, S in subset order, until
    # one falls short: here the first.  Each G'/S game takes the accepted
    # edges at S, merged into min(S), in the order of the G' game's
    # out-edge lists, then the rejected edges, until it holds its target
    g = henneberg_plus(60, 4)
    T = frozenset({18, 23, 30})
    gp = g.delete_edges(combinations(T, 2))
    game = PebbleGame(gp.n)
    rejected = [e for e in gp.edge_list() if not game.try_insert(*e)]
    inserts, copies = [], []
    real = PebbleGame.try_insert
    monkeypatch.setattr(PebbleGame, "try_insert",
                        lambda game, a, b: inserts.append((a, b)) or real(game, a, b))
    shared = pebble_basis_23(g, T)[1]
    assert inserts == gp.edge_list() and shared.rejected == rejected
    real_contracted = PebbleGame.contracted

    def contracted(game, S, bound):
        inserts.clear()
        sub = real_contracted(game, S, bound)
        copies.append((S, bound, list(inserts), sub.accepted))
        return sub

    monkeypatch.setattr(PebbleGame, "contracted", contracted)
    assert _failing_S(T, shared) == frozenset({18, 23})
    assert len(copies) == 1
    for s in subsets_of_two_or_more(T)[1:]:
        shared.contracted(s, rigidity_target(gp.n - len(s) + 1, 2))
    assert [s for s, *_ in copies] == subsets_of_two_or_more(T)
    for i, (s, bound, played, accepted) in enumerate(copies):
        m = min(s)
        at = [(m if v in s else v, m if w in s else w)
              for v, heads in enumerate(shared.out) for w in heads if v in s or w in s]
        images = at + [(m if a in s else a, m if b in s else b) for a, b in rejected]
        assert bound == rigidity_target(gp.n - len(s) + 1, 2)
        assert played == images[:len(played)]
        assert len(played) == len(images) or accepted == bound
        if i == 0:
            assert len(played) >= len(at) + 2  # some rejected edges were played


def test_contractions_reuse_the_g_prime_game(monkeypatch):
    # T is independent in this Henneberg graph, so G' is the graph itself,
    # rigid, and all four contractions are decided; replaying every edge
    # into each G'/S takes about 5|E| inserts
    g = henneberg_random(120, 1)
    T = frozenset({10, 50, 100})
    inserts = []
    real = PebbleGame.try_insert
    monkeypatch.setattr(PebbleGame, "try_insert",
                        lambda game, a, b: inserts.append((a, b)) or real(game, a, b))
    assert coincident_rigid_combinatorial(g, T) is None
    assert len(inserts) < 2 * len(g.edges)
    # check plays the G' game once, for both of its sides: one G' game
    # and the contractions take 282 inserts, two G' games took 519
    games = []

    def counted(g, T):
        games.append(g)
        return pebble_basis_23(g, T)

    for module in (coinrig.linalg, checks):
        monkeypatch.setattr(module, "pebble_basis_23", counted)
    inserts.clear()
    both = check_coincident_rigidity(g, T)
    assert both.combinatorial is both.algebraic is True
    assert len(games) == 1
    assert len(inserts) < 1.5 * len(g.edges)


def _check_drifts(g, T, seed):
    """check's verdict next to those of its two sides called alone."""
    both = check_coincident_rigidity(g, T, seed)
    failing = coincident_rigid_combinatorial(g, T)
    assert both.reports == (generic_rank(g, T, 2, seed),), (g.edge_list(), sorted(T))
    assert (both.combinatorial, both.failing_S) == (failing is None, failing), \
        (g.edge_list(), sorted(T))


def test_check_matches_its_sides_called_alone():
    # check shares one G' game between its sides; generic_rank and
    # coincident_rigid_combinatorial each play it themselves, and the shared
    # path must not drift from them
    seed = 0
    for g in _atlas(6):
        for k in (2, 3):
            for T in combinations(range(g.n), k):
                _check_drifts(g, frozenset(T), seed)
                seed += 1
    rng = random.Random(29)
    for _ in range(150):
        g, T = random_instance(rng, 60, rng.choice([2, 3]))
        _check_drifts(g, T, rng.getrandbits(16))


def test_necessity_direction_standalone():
    # when the algebraic verdict is rigid, every contraction check passes
    rng = random.Random(7)
    hits = 0
    for _ in range(80):
        g, T = random_instance(rng, 7, rng.choice([2, 3]))
        if not generic_rank(g, T, 2, seed=rng.getrandbits(16)).rigid:
            continue
        hits += 1
        gp = g.delete_edges(combinations(T, 2))
        for s in subsets_of_two_or_more(T):
            gc = gp.contract(s)
            assert pebble_rank_23(gc) == rigidity_target(gc.n, 2)
    assert hits >= 5


def test_modp_matches_exact_on_fixtures():
    fx = fixtures()
    rng_seed = 13
    for name in ("fig3-1", "fig4", "k55"):
        f = fx[name]
        p = sample_T_coincident(f.graph, f.T, 2, rng_seed)
        M = rigidity_matrix(f.graph, p)
        assert modp_rank(M) == rank_exact(M)
    f1 = fx["fig3-1"]
    M = rigidity_matrix(f1.graph, f1.realization)
    assert modp_rank(M) == rank_exact(M) == 15


def test_k55_triple():
    f = fixtures()["k55"]
    rep = generic_rank(f.graph, f.T, 3, seed=1)
    assert rep.rank <= 23 and not rep.rigid
    minus = f.graph.delete_edges([tuple(sorted(f.T))])
    rep_minus = generic_rank(minus, {0}, 3, seed=1)
    assert rep_minus.rank == 24 and rep_minus.rigid
    contracted = f.graph.contract(f.T)
    rep_c = generic_rank(contracted, {0}, 3, seed=1)
    assert rep_c.rank == 21 and rep_c.rigid


def test_cross_validate_small():
    report = cross_validate(6, [1, 2, 3], 30, seed=8)
    assert report["samples"] == 30
    assert report["mismatches"] == 0
    assert not report["conjectural"]
    assert set(report["by_t_size"]) == {1, 2, 3}
    # graphs of any size run; the greedy mt checker refuses a T over the
    # enumeration cap, since it plays a pebble game per subset of T
    assert cross_validate(30, [2, 3], 4, seed=8)["mismatches"] == 0
    with pytest.raises(ValueError, match="T has 13 vertices, enumeration cap is 12"):
        cross_validate(14, [2, 13], 2, seed=0)


def test_conjecture_search():
    empty = conjecture_search(6, 4, 0, seed=0)
    assert empty["candidates"] == [] and empty["budget"] == 0
    with pytest.raises(ValueError, match=r"\|T\| >= 4"):
        conjecture_search(6, 3, 10, seed=0)
    # the mt oracle plays pebble games, so graphs of any size run, and only
    # a T over the enumeration cap is refused
    assert conjecture_search(20, 4, 10, seed=3)["candidates"] == []
    with pytest.raises(ValueError, match="T has 13 vertices, enumeration cap is 12"):
        conjecture_search(14, 13, 1, seed=0)
    report = conjecture_search(6, 4, 120, seed=9)
    assert report["candidates"] == []  # the conjecture is expected to hold


def _fake_search(monkeypatch, screen_rank, fresh_rank):
    """Run ``conjecture_search`` with a fake ``generic_rank``.  The first
    call after each draw (the screening call) ranks ``screen_rank(|E|)``;
    later calls rank ``fresh_rank(|E|)``.  Returns the report and, per
    draw, (g, T, the (d, seed) of each call)."""
    draws = []

    def instance(*args):
        g, T = random_instance(*args)
        draws.append((g, T, []))
        return g, T

    def fake(g, T, d, seed=0, **kwargs):
        calls, m = draws[-1][2], len(g.edges)
        r = fresh_rank(m) if calls else screen_rank(m)
        calls.append((d, seed))
        return SimpleNamespace(rank=r, independent=r == m)

    monkeypatch.setattr(checks, "random_instance", instance)
    monkeypatch.setattr(checks, "generic_rank", fake)
    report = conjecture_search(6, 4, 20, seed=9)
    assert len(draws) == 20
    return report, draws


@pytest.mark.parametrize("confirm", [False, True])
def test_conjecture_quarantine_reverifies_each_disagreement(monkeypatch, confirm):
    # seed 9 draws a strongly T-sparse graph, which the screening rank
    # |E| - 1 calls dependent: ten fresh calls, each with its own seed,
    # re-rank it.  Fresh ranks of |E| overrule the screening; fresh ranks of
    # |E| - 1 confirm it, and the draw is reported
    report, draws = _fake_search(monkeypatch, lambda m: m - 1,
                                 lambda m: m - 1 if confirm else m)
    hits = []
    for g, T, calls in draws:
        hit = mt_oracle(g, T).test(g.edges)
        assert len(calls) == (11 if hit else 1)
        assert all(d == 2 for d, _ in calls)
        assert len({seed for _, seed in calls[1:]}) == len(calls) - 1
        if hit:
            hits.append(len(g.edges))
    assert hits
    cands = report["candidates"]
    assert [c["edge_count"] for c in cands] == (hits if confirm else [])
    for c in cands:
        assert c["strongly_T_sparse"] and c["violation"] is None
        assert c["verified_rank"] == c["edge_count"] - 1


def test_conjecture_quarantine_decides_on_the_rank_it_reports(monkeypatch):
    # every sampled rank is a certified lower bound, so a screening rank of
    # |E| proves a draw independent, and fresh ranks of |E| - 1 cannot
    # overrule it: each draw that is not strongly T-sparse is reported,
    # with the verified rank |E|
    report, draws = _fake_search(monkeypatch, lambda m: m, lambda m: m - 1)
    broken = []
    for g, T, calls in draws:
        sparse = mt_oracle(g, T).test(g.edges)
        assert len(calls) == (1 if sparse else 11)
        if not sparse:
            broken.append(len(g.edges))
    assert broken
    cands = report["candidates"]
    assert [c["edge_count"] for c in cands] == broken
    for c in cands:
        assert not c["strongly_T_sparse"] and c["violation"] is not None
        assert c["verified_rank"] == c["edge_count"]


def test_random_instance_shapes():
    rng = random.Random(10)
    for _ in range(40):
        t = rng.randint(1, 4)
        g, T = random_instance(rng, 7, t)
        assert max(4, t + 1) <= g.n <= 7 and len(T) == t
        assert all(0 <= v < g.n for v in T)
    # n_max below the least vertex count max(4, |T| + 1) is refused, not
    # raised to that count
    assert random_instance(rng, 4, 3)[0].n == 4
    for n_max, t in ((3, 1), (-5, 1), (4, 4), (12, 12)):
        with pytest.raises(ValueError, match=f"n_max must be at least "
                           f"{max(4, t + 1)} for \\|T\\| = {t}, got {n_max}"):
            random_instance(rng, n_max, t)
