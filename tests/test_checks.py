import random

import pytest

from coinrig.checks import (check_coincident_rigidity,
                            coincident_rigid_combinatorial, conjecture_search,
                            cross_validate, fixtures, random_instance)
from coinrig.graph import complete_graph
from coinrig.linalg import (generic_rank, rank_exact, rank_modp,
                            rigidity_matrix, rigidity_target,
                            sample_T_coincident)
from coinrig.pebble import pebble_rank_23
from coinrig.sparsity import subsets_of_two_or_more


def test_fixture_shapes():
    fx = fixtures()
    assert set(fx) == {f"fig3-{i}" for i in range(1, 8)} | {"fig4", "k55"}
    for i in range(1, 8):
        f = fx[f"fig3-{i}"]
        assert (f.graph.n, len(f.graph.edges)) == (9, 15)
        assert f.T == frozenset({0, 1, 2})
        assert f.graph.minus_T_edges(f.T) == f.graph  # no T-internal edges
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
    assert rank_modp(M) == 15


def test_fig3_graphs_all_verdicts_true():
    for i in range(1, 8):
        f = fixtures()[f"fig3-{i}"]
        comb = coincident_rigid_combinatorial(f.graph, f.T)
        assert comb.combinatorial, f.name
        rep = generic_rank(f.graph, f.T, 2, seed=i)
        assert rep.rigid and rep.rank == 15


def test_fig4_verdicts():
    f = fixtures()["fig4"]
    comb = coincident_rigid_combinatorial(f.graph, f.T)
    assert comb.combinatorial is False
    assert comb.failing_S == frozenset({0, 1})
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


def test_necessity_direction_standalone():
    # when the algebraic verdict is rigid, every contraction check passes
    rng = random.Random(7)
    hits = 0
    for _ in range(80):
        g, T = random_instance(rng, 7, rng.choice([2, 3]))
        if not generic_rank(g, T, 2, seed=rng.getrandbits(16)).rigid:
            continue
        hits += 1
        gp = g.minus_T_edges(T)
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
        assert rank_modp(M) == rank_exact(M)
    f1 = fx["fig3-1"]
    M = rigidity_matrix(f1.graph, f1.realization)
    assert rank_modp(M) == rank_exact(M) == 15


def test_k55_triple():
    f = fixtures()["k55"]
    rep = generic_rank(f.graph, f.T, 3, trials=3, seed=1)
    assert rep.rank <= 23 and not rep.rigid
    minus = f.graph.delete_edges([tuple(sorted(f.T))])
    rep_minus = generic_rank(minus, {0}, 3, trials=3, seed=1)
    assert rep_minus.rank == 24 and rep_minus.rigid
    contracted = f.graph.contract(f.T)
    rep_c = generic_rank(contracted, {0}, 3, trials=3, seed=1)
    assert rep_c.rank == 21 and rep_c.rigid


def test_cross_validate_small():
    report = cross_validate(6, [1, 2, 3], 30, seed=8)
    assert report["samples"] == 30
    assert report["mismatches"] == 0
    assert not report["conjectural"]
    assert set(report["by_t_size"]) == {1, 2, 3}
    # the one enumeration cap bounds the largest graph a run can draw,
    # refused before the first sample; up to the cap runs go through
    assert cross_validate(12, [2, 3], 4, seed=8)["mismatches"] == 0
    with pytest.raises(ValueError, match="13 vertices, enumeration cap is 12"):
        cross_validate(13, [2], 1, seed=0)
    with pytest.raises(ValueError, match="enumeration cap is 12"):
        cross_validate(6, [2, 13], 0, seed=0)


def test_conjecture_search():
    empty = conjecture_search(6, 4, 0, seed=0)
    assert empty["candidates"] == [] and empty["budget"] == 0
    with pytest.raises(ValueError, match=r"\|T\| >= 4"):
        conjecture_search(6, 3, 10, seed=0)
    with pytest.raises(ValueError, match="13 vertices, enumeration cap is 12"):
        conjecture_search(13, 4, 0, seed=0)
    report = conjecture_search(6, 4, 120, seed=9)
    assert report["candidates"] == []  # the conjecture is expected to hold


def test_random_instance_shapes():
    rng = random.Random(10)
    for _ in range(40):
        t = rng.randint(1, 4)
        g, T = random_instance(rng, 7, t)
        assert g.n <= 7 and len(T) == t
        assert all(0 <= v < g.n for v in T)
