import random
import warnings
from itertools import combinations

import pytest

import coinrig.matroid
from coinrig.checks import fixtures
from coinrig.constructions import henneberg_random
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import (TRIALS, ModpEchelon, _sample_points, _sparse_rows,
                            _trial_rows, _trial_seed, generic_rank, rank_exact,
                            rigidity_matrix, sample_T_coincident)
from coinrig.matroid import (MatroidRankCertificate, _RtChecker, circuits_upto,
                             greedy_rank, laman_oracle, mt_oracle,
                             mt_rank_cover_min, rt_oracle)
from coinrig.sparsity import (AugmentedFamily, CompatibleFamily,
                              InvariantError, _mask_of,
                              subsets_of_two_or_more, val_augmented,
                              val_family)
from test_sparsity import partial_partitions, reference_min_thin_cover


def fig4():
    return Graph(8, [(4, 3), (4, 0), (4, 1), (5, 3), (5, 0), (5, 1),
                     (6, 3), (6, 0), (6, 1), (7, 4), (7, 5), (2, 7), (2, 6)],
                 ("u", "v", "w", "a", "b", "c", "d", "e"))


def random_instance(rng, n_hi=7, t_size=2):
    n = rng.randint(max(4, t_size + 1), n_hi)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = max(1, min(len(pairs), 2 * n - 3 + rng.randint(-3, 3)))
    g = Graph(n, rng.sample(pairs, m))
    return g, frozenset(rng.sample(range(n), t_size))


def test_oracle_axioms_spot_checks():
    rng = random.Random(0)
    for _ in range(25):
        g, T = random_instance(rng, 6, rng.randint(1, 3))
        seed = rng.getrandbits(16)
        for make in (lambda h: mt_oracle(h, T), laman_oracle,
                     lambda h: rt_oracle(h, T, seed=seed)):
            oracle = make(g)
            assert oracle.test([])  # I.1
            edges = g.edge_list()
            rng.shuffle(edges)
            chain = edges[:rng.randint(1, len(edges))]
            # independence is a greedy run over the chain's subgraph that
            # keeps every edge
            sub = make(Graph(g.n, chain))
            assert oracle.test(chain) == (greedy_rank(sub).rank == len(chain))
            if oracle.test(chain):  # I.2 on a random chain
                for k in range(len(chain)):
                    assert oracle.test(chain[:k])


def test_mt_oracle_k4():
    K4 = complete_graph(4)
    cert = greedy_rank(mt_oracle(K4, {0, 1}))
    assert cert.rank == 5
    assert (0, 1) not in cert.base  # the T-internal edge is a loop
    assert not cert.conjectural


def test_laman_oracle_k4():
    assert greedy_rank(laman_oracle(complete_graph(4))).rank == 5


def test_mt_oracle_fig4_rank_12():
    # the full edge set is dependent: the S = {u,v} family violation costs one
    g = fig4()
    cert = greedy_rank(mt_oracle(g, {0, 1, 2}))
    assert cert.rank == 12 == len(g.edges) - 1
    value, witness = mt_rank_cover_min(g, {0, 1, 2})
    assert value == 12
    assert witness.S == frozenset({0, 1})


def test_greedy_rejects_foreign_edges():
    for edges in ([(0, 5)], [(7, 3), (0, 1), (5, 0)]):
        with pytest.raises(ValueError, match=r"edge \(0, 5\) is not in the oracle's ground"):
            laman_oracle(complete_graph(3)).test(edges)


def test_cover_min_small_cases():
    K4 = complete_graph(4)
    value, witness = mt_rank_cover_min(K4, {0, 1})
    assert value == 5
    assert witness.is_one_thin()
    # every edge inside T: nothing to cover, the empty family of value 0 wins
    value, witness = mt_rank_cover_min(Graph(3, [(0, 1)]), {0, 1})
    assert value == 0 and witness.family is None and witness.xsets == ()


def test_cover_min_witness_is_certificate():
    rng = random.Random(1)
    for _ in range(40):
        g, T = random_instance(rng, 7, rng.choice([2, 3]))
        eprime = [e for e in g.edge_list() if rng.random() < 0.8]
        value, witness = mt_rank_cover_min(Graph(g.n, eprime), T)
        assert witness.is_one_thin()
        assert val_augmented(witness) == value
        covered = witness.covers()
        for a, b in eprime:
            assert (a in T and b in T) or (a, b) in covered


@pytest.mark.parametrize("forge, what", [
    (lambda val, sets: (val, sets[:-1]), "misses an edge not inside T"),
    (lambda val, sets: (val, sets + sets[:1]), "is not 1-thin"),
    (lambda val, sets: (val - 1, sets), "has value"),
], ids=["uncovered", "thick", "undervalued"])
def test_cover_min_rechecks_its_family(monkeypatch, forge, what):
    # a forged cover search: the returned family is rechecked on its sets
    real = coinrig.matroid.min_thin_cover

    def forged(*args, **kwargs):
        res = real(*args, **kwargs)
        return res and forge(*res)

    monkeypatch.setattr(coinrig.matroid, "min_thin_cover", forged)
    f = fixtures()["fig4"]
    with pytest.raises(InvariantError, match=what):
        mt_rank_cover_min(f.graph, f.T)


def test_duality_greedy_equals_cover_min():
    rng = random.Random(2)
    for _ in range(60):
        g, T = random_instance(rng, 7, rng.choice([2, 3]))
        sub = Graph(g.n, [e for e in g.edge_list() if rng.random() < 0.8])
        assert greedy_rank(mt_oracle(sub, T)).rank == mt_rank_cover_min(sub, T)[0]


def test_cover_min_argument_checks():
    with pytest.raises(ValueError, match=r"\|T\| >= 2"):
        mt_rank_cover_min(complete_graph(4), {0})
    with pytest.raises(ValueError, match="enumeration cap is 12"):
        mt_rank_cover_min(Graph(13, [(0, 1)]), {0, 1})
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        mt_rank_cover_min(complete_graph(5), {0, 1, 2, 3})
        assert any("conjectural" in str(x.message) for x in w)


def reference_cover_min(g, eprime, T):
    """The unpruned enumeration: every S, then every partial partition of
    the vertices outside S in ``partial_partitions`` order, each leaf
    rebuilt from scratch and covered by the reference cover search; the
    first strictly smaller total wins."""
    ts = frozenset(T)
    edges = g.edge_list() if eprime is None else sorted(
        (a, b) if a < b else (b, a) for a, b in eprime)
    targets = [(1 << a) | (1 << b) for a, b in edges
               if not (a in ts and b in ts)]
    best_val = best_fam = None
    for s in subsets_of_two_or_more(ts):
        s_mask = _mask_of(s)
        others = tuple(v for v in range(g.n) if v not in s)
        for blocks in partial_partitions(others):
            member_masks = [s_mask | _mask_of(b) for b in blocks]
            base = (val_family(CompatibleFamily(s, tuple(s | b for b in blocks)))
                    if blocks else 0)
            union_h = 0
            for m in member_masks:
                union_h |= m
            if best_val is not None and base >= best_val:
                continue
            uncovered = [e for e in targets
                         if not any(e & m == e for m in member_masks)]
            res = reference_min_thin_cover(
                g.n, uncovered, forbidden=union_h,
                cap_val=None if best_val is None else best_val - base)
            if res is None:
                continue
            cval, xmasks = res
            if best_val is None or base + cval < best_val:
                best_val = base + cval
                fam = (CompatibleFamily(s, tuple(s | b for b in blocks))
                       if blocks else None)
                xsets = tuple(frozenset(v for v in range(g.n) if x >> v & 1)
                              for x in xmasks)
                best_fam = AugmentedFamily(s, fam, xsets)
    return best_val, best_fam


def _dual(aug):
    return MatroidRankCertificate(0, (), aug).to_dict()["dual"]


@pytest.mark.parametrize("t_size,count", [(2, 120), (3, 120), (4, 60)])
def test_cover_min_witness_matches_partition_reference(t_size, count):
    # the pruned search returns the reference's value and its exact witness,
    # with no bound and with the greedy rank as its bound (the search then
    # stops at the first leaf of that value); an edge subset is ranked as
    # the subgraph it spans
    rng = random.Random(100 + t_size)
    for _ in range(count):
        g, T = random_instance(rng, 8, t_size)
        eprime = [e for e in g.edge_list() if rng.random() < 0.7]
        for ep in (None, eprime):
            h = g if ep is None else Graph(g.n, ep)
            ref_value, ref_witness = reference_cover_min(g, ep, T)
            for lower in (0, greedy_rank(mt_oracle(h, T)).rank):
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "cover minimum with")
                    value, witness = mt_rank_cover_min(h, T, lower)
                assert value == ref_value, (g.edge_list(), sorted(T), ep, lower)
                assert _dual(witness) == _dual(ref_witness), (
                    g.edge_list(), sorted(T), ep, lower)
    # every edge inside T: the empty family of value 0 under the first S
    g, inside = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)]), [(0, 1), (1, 2)]
    value, witness = mt_rank_cover_min(Graph(5, inside), {0, 1, 2})
    assert (value, _dual(witness)) == (0, {"S": [0, 1], "family": [], "xsets": []})
    assert reference_cover_min(g, inside, {0, 1, 2})[0] == 0


def _count_cover_calls(monkeypatch):
    """Count ``min_thin_cover`` calls from the cover minimum (one per leaf)."""
    calls = []
    real = coinrig.matroid.min_thin_cover

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(coinrig.matroid, "min_thin_cover", counting)
    return calls


def test_cover_min_calls_min_thin_cover_rarely(monkeypatch):
    # one n = 9, |T| = 3 graph with 2n - 3 edges: the unpruned loop calls
    # min_thin_cover at almost every one of its ~13k partial partitions
    rng = random.Random(7)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    g, T = Graph(9, rng.sample(pairs, 15)), frozenset({0, 4, 7})
    leaves = sum(sum(1 for _ in partial_partitions(
        tuple(v for v in range(9) if v not in s)))
        for s in subsets_of_two_or_more(T))
    calls = _count_cover_calls(monkeypatch)
    rank = greedy_rank(mt_oracle(g, T)).rank
    value, _ = mt_rank_cover_min(g, T)
    assert value == rank
    assert leaves > 13000
    assert len(calls) == 6, (len(calls), leaves)
    # with the greedy rank as its bound the search stops at the first leaf,
    # which covers the 15 edges by sets alone at the rank 13
    calls.clear()
    assert mt_rank_cover_min(g, T, rank)[0] == rank
    assert len(calls) == 1


def test_cover_min_stops_at_the_bound_on_the_fixtures(monkeypatch):
    # every fig3 base graph reaches its rank 15 at the first leaf, which the
    # full search needs 11-19 leaves to prove a minimum
    calls = _count_cover_calls(monkeypatch)
    counts = {}
    for name, f in fixtures().items():
        if not name.startswith("fig3"):
            continue
        rank = greedy_rank(mt_oracle(f.graph, f.T)).rank
        calls.clear()
        full = mt_rank_cover_min(f.graph, f.T)
        unbounded = len(calls)
        calls.clear()
        bounded = mt_rank_cover_min(f.graph, f.T, rank)
        counts[name] = (unbounded, len(calls))
        assert rank == full[0] == bounded[0] == 15
        assert _dual(full[1]) == _dual(bounded[1]), name
    assert counts == {"fig3-1": (17, 1), "fig3-2": (15, 1), "fig3-3": (11, 1),
                      "fig3-4": (19, 1), "fig3-5": (16, 1), "fig3-6": (14, 1),
                      "fig3-7": (19, 1)}


def test_cover_min_bound_stops_only_on_equality():
    # a bound the minimum never equals changes nothing: 0 below it (unless
    # the minimum is 0) and one more than the edge count above every total
    # (the first leaf covers by sets alone, at most one per edge by pairs)
    cases = [(f.graph, f.T) for f in fixtures().values()]
    rng = random.Random(11)
    for _ in range(40):
        cases.append(random_instance(rng, 8, rng.choice([2, 3])))
    for g, T in cases:
        value, witness = mt_rank_cover_min(g, T)
        for lower in (0, len(g.edges) + 1):
            got, got_witness = mt_rank_cover_min(g, T, lower)
            assert (got, _dual(got_witness)) == (value, _dual(witness)), (
                g.edge_list(), sorted(T), lower)


def test_mt_rt_agree_during_greedy():
    rng = random.Random(3)
    for _ in range(80):
        g, T = random_instance(rng, 7, rng.randint(1, 3))
        mt = greedy_rank(mt_oracle(g, T))
        rt = greedy_rank(rt_oracle(g, T, seed=rng.getrandbits(16)))
        assert mt.rank == rt.rank, (g.edge_list(), sorted(T))
        assert mt.base == rt.base


class EagerRtChecker:
    """Reference rt checker: every valid echelon is fed every edge."""

    def __init__(self, row_maps):
        self.row_maps = row_maps
        self.echelons = [ModpEchelon() for _ in row_maps]
        self.valid = [True] * len(row_maps)

    def try_add(self, a, b) -> bool:
        e = (a, b) if a < b else (b, a)
        results = {}
        for j, (rm, ech) in enumerate(zip(self.row_maps, self.echelons)):
            if self.valid[j]:
                results[j] = ech.try_add(rm[e])
        if not any(results.values()):
            return False
        for j, ok in results.items():
            if not ok:
                self.valid[j] = False
        return True


def test_rt_oracle_and_generic_rank_share_the_trial_count():
    # the rt oracle ranks the realizations that generic_rank samples
    g = henneberg_random(8, 2)
    assert generic_rank(g, {0, 1}, 2, seed=5).trials == TRIALS
    add = rt_oracle(g, {0, 1}, seed=5).incremental()
    assert len(add.__self__.echelons) == TRIALS


def _assert_rt_checker_matches_eager(monkeypatch, row_maps, order,
                                     T=frozenset()):
    # one echelon per row map; crafted rows with at most 3 columns keep at
    # most 3 accepted edges, and any 4 edges are (2,3)-sparse, so the
    # checker's pebble game neither rejects an edge nor raises
    monkeypatch.setattr(coinrig.matroid, "TRIALS", len(row_maps))
    n = 1 + max((max(e) for e in order), default=0)
    lazy = _RtChecker(row_maps.__getitem__, frozenset(T), n)
    eager = EagerRtChecker(row_maps)
    got = [lazy.try_add(a, b) for a, b in order]
    want = [eager.try_add(a, b) for a, b in order]
    assert got == want, (row_maps, order)
    assert [lazy._catch_up(j) for j in range(len(row_maps))] == eager.valid
    return eager.valid


def test_rt_checker_matches_eager_reference_on_sampled_rows(monkeypatch):
    rng = random.Random(8)
    for _ in range(60):
        g, T = random_instance(rng, 8, rng.randint(1, 3))
        seed = rng.getrandbits(16)
        row_maps = [_sparse_rows(g, _sample_points(g, T, 2, _trial_seed(seed, t)), 2)
                    for t in range(3)]
        order = g.edge_list()
        rng.shuffle(order)
        _assert_rt_checker_matches_eager(monkeypatch, row_maps, order, T)


def test_rt_checker_matches_eager_reference_when_trials_disagree(monkeypatch):
    # trial 0 finds e2 dependent, trial 1 does not: e2 is accepted, trial 0
    # turns invalid, and e3 (dependent in trial 1) is rejected
    e1, e2, e3 = (0, 1), (0, 2), (1, 2)
    row_maps = [{e1: {0: 1}, e2: {0: 2}, e3: {1: 1}},
                {e1: {0: 1}, e2: {1: 1}, e3: {1: 3}}]
    monkeypatch.setattr(coinrig.matroid, "TRIALS", 2)
    lazy = _RtChecker(row_maps.__getitem__, frozenset(), 3)
    assert [lazy.try_add(*e) for e in (e1, e2, e3)] == [True, True, False]
    assert (_assert_rt_checker_matches_eager(monkeypatch, row_maps, [e1, e2, e3])
            == [False, True])
    # random low-dimensional rows, different per trial, disagree often
    rng = random.Random(9)
    invalidated = 0
    for _ in range(300):
        edges = list(combinations(range(5), 2))
        trials = rng.randint(1, 4)
        row_maps = [{e: {c: rng.randint(-2, 2) for c in range(3) if rng.random() < 0.6}
                     for e in edges} for _ in range(trials)]
        rng.shuffle(edges)
        invalidated += _assert_rt_checker_matches_eager(
            monkeypatch, row_maps, edges).count(False)
    assert invalidated > 100


def test_rt_oracle_checker_matches_eager_reference():
    # the certificates (an edge inside T, the pebble game) reject without
    # the later trials, and change no verdict
    rng = random.Random(10)
    for t_size in range(1, 6):
        for _ in range(12):
            g, T = random_instance(rng, 8, t_size)
            seed = rng.getrandbits(16)
            row_maps = [_trial_rows(g, T, 2, seed, t) for t in range(3)]
            order = g.edge_list()
            rng.shuffle(order)
            add = rt_oracle(g, T, seed=seed).incremental()
            eager = EagerRtChecker(row_maps)
            assert ([add(a, b) for a, b in order]
                    == [eager.try_add(a, b) for a, b in order]), (g.edge_list(), sorted(T))


def _counting_rows(row_maps):
    asked = []

    def rows(t):
        asked.append(t)
        return row_maps[t]

    return rows, asked


def test_rt_rows_drawn_only_when_a_trial_is_asked():
    # K4 with T = {0}: the sixth edge breaks the Maxwell count 2|X| - 3,
    # so no further trial is drawn for it
    k4, T = complete_graph(4), frozenset({0})
    rows, asked = _counting_rows([_trial_rows(k4, T, 2, 5, t) for t in range(3)])
    lazy = _RtChecker(rows, T, 4)
    assert all(lazy.try_add(a, b) for a, b in k4.edge_list() if (a, b) != (0, 3))
    assert not lazy.try_add(0, 3)
    assert set(asked) == {0}
    # K_{2,3} plus the edge inside T = {0, 1}: that edge draws no trial at
    # all; (1, 4) keeps the count but is dependent with 0 and 1 at one
    # point, an uncertified rejection that draws trials 1 and 2
    g, T = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]), frozenset({0, 1})
    rows, asked = _counting_rows([_trial_rows(g, T, 2, 5, t) for t in range(3)])
    lazy = _RtChecker(rows, T, 5)
    assert not lazy.try_add(0, 1) and asked == []
    assert all(lazy.try_add(a, b) for a, b in g.edge_list()[1:-1])
    assert set(asked) == {0}
    assert not lazy.try_add(1, 4)
    assert set(asked) == {0, 1, 2}


def test_rt_later_trial_accepts_an_uncertified_edge_trial_0_rejects():
    # trial 0 puts the triangle on a line, so it rejects (1, 2); the pebble
    # game takes the edge, so trial 1 is asked, replays the accepted edges
    # and accepts it; trial 0 turns invalid
    tri, T = complete_graph(3), frozenset({0})
    row_maps = [_sparse_rows(tri, [(0, 0), (1, 1), (3, 3)], 2),
                *(_trial_rows(tri, T, 2, 5, t) for t in (1, 2))]
    lazy = _RtChecker(row_maps.__getitem__, T, 3)
    assert [lazy.try_add(a, b) for a, b in tri.edge_list()] == [True, True, True]
    assert [lazy._catch_up(j) for j in range(3)] == [False, True, True]
    eager = EagerRtChecker(row_maps)
    assert all(eager.try_add(a, b) for a, b in tri.edge_list())


def test_rt_checker_refuses_rows_the_pebble_game_cannot_hold(monkeypatch):
    # independent rows on more edges than the Maxwell count allows are no
    # planar rigidity rows: the checker stops with InvariantError
    k4 = complete_graph(4)
    rows = {e: {i: 1} for i, e in enumerate(k4.edge_list())}
    monkeypatch.setattr(coinrig.matroid, "TRIALS", 1)
    lazy = _RtChecker([rows].__getitem__, frozenset({0}), 4)
    assert all(lazy.try_add(a, b) for a, b in k4.edge_list()[:5])
    with pytest.raises(InvariantError, match="not \\(2,3\\)-sparse"):
        lazy.try_add(*k4.edge_list()[5])


def test_rt_oracle_checks_its_arguments_up_front():
    k4, empty = complete_graph(4), Graph(3, [])
    for g in (k4, empty):
        with pytest.raises(ValueError, match="invalid vertex 7"):
            rt_oracle(g, {0, 7})


def test_rt_base_is_certified_independent_over_q():
    # the rt oracle eliminates mod p; the exact rank re-checks its certificate
    for f in fixtures().values():
        base = greedy_rank(rt_oracle(f.graph, f.T, seed=4)).base
        sub = Graph(f.graph.n, base)
        assert any(
            rank_exact(rigidity_matrix(
                sub, sample_T_coincident(f.graph, f.T, 2, _trial_seed(4, t))))
            == len(base) for t in range(3)), f.name


def _hinged_henneberg(rng, n, t_size, extra):
    """A Henneberg graph less its edges inside T, plus ``extra`` edges from
    T to other vertices: common T-neighbours make family conditions bite."""
    T = frozenset(rng.sample(range(n), t_size))
    g = henneberg_random(n, rng.getrandbits(32)).minus_T_edges(T)
    others = [v for v in range(n) if v not in T]
    hinges = [(t, x) for x in rng.sample(others, extra)
              for t in rng.sample(sorted(T), rng.randint(2, t_size))]
    return g.add_edges([e for e in hinges if tuple(sorted(e)) not in g.edges][:extra]), T


def test_greedy_base_size_permutation_invariant():
    # a matroid property, so it holds past the enumeration cap with no
    # reference: the hinged n = 40 graphs have |T| = 4 and 5
    rng = random.Random(4)
    instances = [random_instance(rng, 7, rng.randint(1, 4)) for _ in range(30)]
    instances += [_hinged_henneberg(rng, 40, 4 + i % 2, 10) for i in range(6)]
    for g, T in instances:
        oracle = mt_oracle(g, T)
        sizes = {greedy_rank(oracle).rank}
        for _ in range(5):
            order = g.edge_list()
            rng.shuffle(order)
            chk = oracle.incremental()
            sizes.add(sum(1 for a, b in order if chk(a, b)))
        assert len(sizes) == 1, (g.edge_list(), sorted(T))


@pytest.mark.parametrize("n", [30, 60, 100, 200])
def test_mt_rt_agree_past_the_enumeration_cap(n):
    # the theorem for |T| <= 3 on graphs no subset table could hold
    rng = random.Random(n)
    for t_size in (2, 3):
        g, T = _hinged_henneberg(rng, n, t_size, n // 5)
        mt = greedy_rank(mt_oracle(g, T))
        rt = greedy_rank(rt_oracle(g, T, seed=n))
        assert mt.rank == rt.rank, (g.edge_list(), sorted(T))
        assert mt.base == rt.base


def test_conjectural_flag():
    g, T = complete_graph(6), {0, 1, 2, 3}
    assert greedy_rank(mt_oracle(g, T)).conjectural
    assert not greedy_rank(mt_oracle(g, {0, 1, 2})).conjectural


def test_circuits_laman_k4():
    circuits = circuits_upto(laman_oracle(complete_graph(4)), 6)
    assert circuits == [frozenset(complete_graph(4).edges)]


def test_circuits_T_internal_edge_is_loop():
    circuits = circuits_upto(mt_oracle(complete_graph(4), {0, 1}), 1)
    assert circuits == [frozenset({(0, 1)})]


def test_circuits_fig4_family_region():
    # the K_{2,3} between {u,v} and {b,c,d} is a circuit of the T-matroid
    g = fig4()
    circuits = circuits_upto(mt_oracle(g, {0, 1, 2}), 6)
    k23 = frozenset({(0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (1, 6)})
    assert k23 in circuits


def test_circuits_scan_cap(monkeypatch):
    monkeypatch.setattr(coinrig.matroid, "CIRCUIT_SCAN_CAP", 10)
    with pytest.raises(ValueError, match="scan"):
        circuits_upto(laman_oracle(complete_graph(10)), 20)
