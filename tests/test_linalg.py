import dataclasses
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from coinrig import linalg
from coinrig.checks import fixtures
from coinrig.constructions import henneberg_random, zero_extension
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import (PRIME, ModpEchelon, Realization,
                            RigidityMatrix, _exact_rank, _sample_points,
                            _sparse_rows, generic_rank, pebble_basis_23,
                            rank_exact, rigidity_matrix, rigidity_target,
                            sample_T_coincident)
from coinrig.pebble import pebble_rank_23


def F(x):
    return Fraction(x)


def lift_contracted_realization(g, T, p_T):
    """Lift a realization of g/T to a T-coincident realization of g.

    Vertices of T take the contracted vertex's point; everything else keeps
    its own point under the contraction's id map.
    """
    remap = g.contraction_map(T)
    return Realization(p_T.dim, {v: p_T.point(remap[v]) for v in range(g.n)})


def kernel_contains(M, vec):
    """Check R * vec = 0 by explicit multiplication."""
    for row in M.rows:
        if sum(x * vec[c] for c, x in row.items()):
            return False
    return True


def dense_rows(g, p):
    """The rigidity matrix of g at p as dense Fraction rows, written entry by
    entry: the reference layout for ``rigidity_matrix``'s sparse rows."""
    d = p.dim
    rows = []
    for u, v in g.edge_list():
        pu, pv = p.point(u), p.point(v)
        row = [Fraction(0)] * (d * g.n)
        for i in range(d):
            row[d * u + i] = pu[i] - pv[i]
            row[d * v + i] = pv[i] - pu[i]
        rows.append(row)
    return rows


def rigid_motion_basis(p, n):
    """The d translations and C(d,2) infinitesimal rotations at p."""
    d = p.dim
    out = []
    for i in range(d):
        vec = [Fraction(0)] * (d * n)
        for v in range(n):
            vec[d * v + i] = Fraction(1)
        out.append(vec)
    for i in range(d):
        for j in range(i + 1, d):
            vec = [Fraction(0)] * (d * n)
            for v in range(n):
                pt = p.point(v)
                vec[d * v + i] = -pt[j]
                vec[d * v + j] = pt[i]
            out.append(vec)
    return out


def test_single_edge_row():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0)), 1: (F(1), F(0))})
    M = rigidity_matrix(g, p)
    assert M.shape == (1, 4)
    assert M.rows[0] == {0: -1, 2: 1}
    assert rank_exact(M) == 1


def test_coincident_edge_gives_zero_row():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(2), F(3)), 1: (F(2), F(3))})
    M = rigidity_matrix(g, p)
    assert M.shape == (1, 4)
    assert M.rows[0] == {}
    assert rank_exact(M) == 0
    assert modp_rank(M) == 0


def test_triangle_rank():
    g = complete_graph(3)
    p = Realization(2, {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))})
    M = rigidity_matrix(g, p)
    assert rank_exact(M) == 3
    assert modp_rank(M) == 3


def test_missing_coordinates_error():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0))})
    with pytest.raises(ValueError, match="no coordinates"):
        rigidity_matrix(g, p)


def test_rigidity_rows_match_the_dense_reference():
    # one builder lays out every row; check it against dense Fraction rows
    # on realizations with coincident T, half of them with fractional points
    # (T keeps one point: its vertices share their denominators)
    rng = random.Random(43)
    for d in (1, 2, 3):
        for k in range(40):
            n = rng.randint(1, 8)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            T = rng.sample(range(n), rng.randint(1, n))
            p = sample_T_coincident(g, T, d, k)
            if k % 2:
                dens = {v: [rng.randint(1, 30) for _ in range(d)] for v in range(n)}
                p = Realization(d, {v: tuple(c / q for c, q in zip(
                    pt, dens[min(T) if v in T else v])) for v, pt in p.coords.items()})
            ref = dense_rows(g, p)
            scale = lcm(*(c.denominator for pt in p.coords.values() for c in pt))
            M = rigidity_matrix(g, p)
            assert M.shape == (len(g.edges), d * n)
            assert M.rows == [{c: x * scale for c, x in enumerate(row) if x} for row in ref]
            assert all(type(x) is int for row in M.rows for x in row.values())
            assert rank_exact(M) == frac_rank(ref), (d, k)


def int_rank(rows: list[list[int]]) -> int:
    """Rank of a dense integer matrix by Bareiss fraction-free elimination:
    the independent dense reference for the package's sparse kernels.

    The cross-multiplication update divided by the previous pivot stays
    integral, which keeps intermediate entries at minor-determinant size.
    """
    m = [r[:] for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic:
                mr = m[r]
                mi = m[i]
                for j in range(c + 1, ncols):
                    mi[j] = (pivot * mi[j] - mic * mr[j]) // prev
                mi[c] = 0
            else:
                mi = m[i]
                for j in range(c + 1, ncols):
                    mi[j] = (pivot * mi[j]) // prev
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def frac_rank(rows) -> int:
    """Rank by plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_int_rank_against_fraction_gauss():
    rng = random.Random(0)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert int_rank(mat) == frac_rank(mat)


def test_rank_modp_never_exceeds_exact():
    rng = random.Random(4)
    for seed in range(20):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        p = sample_T_coincident(g, {0}, 2, seed)
        M = rigidity_matrix(g, p)
        assert modp_rank(M) <= rank_exact(M)
        assert modp_rank(M) == rank_exact(M)  # equality on all sampled instances


def test_rank_modp_scales_rows_to_integers_first():
    # the point's denominator is PRIME itself: scaled by it to integers, the
    # row stays nonzero mod PRIME
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0)), 1: (Fraction(1, PRIME), F(1))})
    M = rigidity_matrix(g, p)
    assert modp_rank(M) == rank_exact(M) == 1


def test_rigidity_thresholds():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0)), 1: (F(5), F(1))})
    assert rank_exact(rigidity_matrix(g, p)) == rigidity_target(2, 2)  # 1 = 2*2-3
    path = Graph(3, [(0, 1), (1, 2)])
    q = sample_T_coincident(path, {0}, 2, 7)
    assert rank_exact(rigidity_matrix(path, q)) != rigidity_target(3, 2)
    assert rigidity_target(1, 2) == 0  # |V| < d branch
    assert rigidity_target(9, 2) == 15


def test_sample_T_coincident():
    g = complete_graph(4)
    p = sample_T_coincident(g, {1, 2}, 2, 5)
    assert p.point(1) == p.point(2)
    q = sample_T_coincident(g, {1, 2}, 2, 5)
    assert p.coords == q.coords  # deterministic for a fixed seed
    r = sample_T_coincident(g, {1, 2}, 2, 6)
    assert p.coords != r.coords
    single = sample_T_coincident(g, {3}, 2, 5)
    assert len({single.point(v) for v in range(4)}) == 4


def test_integer_sampler_matches_realization():
    # the integer points are the numerators of sample_T_coincident's
    # coordinates, whose denominators are all 1
    rng = random.Random(31)
    for d in (1, 2, 3):
        for t_size in (1, 2, 3):
            for seed in range(4):
                n = rng.randint(t_size, 8)
                g = Graph(n, [])
                T = frozenset(rng.sample(range(n), t_size))
                pts = _sample_points(g, T, d, seed)
                p = sample_T_coincident(g, T, d, seed)
                assert len(pts) == n
                for v in range(n):
                    assert pts[v] == tuple(c.numerator for c in p.point(v))
                    assert all(c.denominator == 1 for c in p.point(v))
                assert len({pts[v] for v in T}) == 1
    with pytest.raises(ValueError, match="invalid vertex 3"):
        sample_T_coincident(Graph(3, []), {0, 3}, 2, 0)


def test_sampler_draws_the_randint_stream():
    # the inlined draw must keep every realization, digest and seeded
    # witness: each coordinate is random.Random(seed).randint's next draw
    bound = linalg.COORD_BOUND
    for d in (1, 2, 3):
        for t_size in (1, 2, 3):
            for seed in (0, 1, 7, 12345, 2**40 + 3):
                n = 9
                T = frozenset(random.Random(seed).sample(range(n), t_size))
                ref, rng, want = min(T), random.Random(seed), []
                for v in range(n):
                    want.append(want[ref] if v > ref and v in T else
                                tuple(rng.randint(-bound, bound) for _ in range(d)))
                assert _sample_points(Graph(n, []), T, d, seed) == want, (d, T, seed)


def test_generic_rank_report_fields():
    K4 = complete_graph(4)
    rep = generic_rank(K4, {0, 1}, 2, seed=1)
    assert rep.rank == 5 and rep.target == 5
    assert rep.rigid and not rep.independent  # |E| = 6 > 5
    assert rep.method == "exact-rational"
    assert "Schwartz-Zippel" in rep.note
    K3 = complete_graph(3)
    rep3 = generic_rank(K3, {0, 1}, 2, seed=1)
    assert rep3.rank == 2 and not rep3.rigid


def test_rank_upper_bound_and_monotonicity():
    rng = random.Random(11)
    for seed in range(25):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(1, len(pairs))
        chosen = rng.sample(pairs, m)
        g = Graph(n, chosen)
        rep = generic_rank(g, {0}, 2, seed=seed)
        assert rep.rank <= min(len(g.edges), rigidity_target(n, 2))
        if m >= 2:
            sub = Graph(n, chosen[:-1])
            sub_rep = generic_rank(sub, {0}, 2, seed=seed)
            assert sub_rep.rank <= rep.rank


def test_rigid_motions_lie_in_kernel():
    rng = random.Random(13)
    for d in (2, 3):
        for seed in range(8):
            n = rng.randint(d, 6)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            p = sample_T_coincident(g, {0}, d, seed)
            M = rigidity_matrix(g, p)
            basis = rigid_motion_basis(p, n)
            assert len(basis) == comb(d + 1, 2)
            for vec in basis:
                assert kernel_contains(M, vec)


def test_contraction_kernel_bound():
    # rank R(G,p) <= rank R(G/T, p_T) + d(|T|-1) for lifted realizations
    rng = random.Random(17)
    for seed in range(20):
        n = rng.randint(4, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        T = frozenset(rng.sample(range(n), rng.randint(2, 3)))
        gT = g.contract(T)
        pT = sample_T_coincident(gT, {0}, 2, seed)
        lifted = lift_contracted_realization(g, T, pT)
        for v in T:
            assert lifted.point(v) == lifted.point(min(T))
        lhs = rank_exact(rigidity_matrix(g, lifted))
        rhs = rank_exact(rigidity_matrix(gT, pT)) + 2 * (len(T) - 1)
        assert lhs <= rhs


def test_realization_json_roundtrip():
    p = Realization(2, {0: (F(1) / 3, F(-2)), 1: (F(0), F(5) / 7)})
    doc = json.loads(p.to_json())
    assert doc == {"d": 2, "coords": {"0": ["1/3", "-2/1"], "1": ["0/1", "5/7"]}}
    coords = {int(v): tuple(map(Fraction, pt)) for v, pt in doc["coords"].items()}
    assert Realization(doc["d"], coords) == p


def _echelon_rank(rows) -> int:
    ech = ModpEchelon()
    for row in rows:
        ech.try_add(row)
    return ech.rank


def modp_rank(M: RigidityMatrix) -> int:
    """Rank mod PRIME of M's sparse integer rows."""
    return _echelon_rank(M.rows)


def _random_int_matrix(rng):
    """Random integer rows of random rank, with duplicate, scaled and zero rows."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    rank = rng.randint(0, min(rows, cols))
    bound = rng.choice((3, 1 << 20, 1 << 70))
    basis = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    mat = []
    for _ in range(rows):
        combo = [rng.randint(-3, 3) for _ in basis]
        mat.append([sum(c * b[j] for c, b in zip(combo, basis)) for j in range(cols)])
    if rng.random() < 0.5:
        mat.append(list(rng.choice(mat)))
    if rng.random() < 0.5:
        mat.append([0] * cols)
    if rng.random() < 0.5:
        mat.append([-2 * x for x in rng.choice(mat)])
    rng.shuffle(mat)
    return mat


def test_echelon_rank_equals_int_rank_on_random_matrices():
    rng = random.Random(21)
    for _ in range(300):
        mat = _random_int_matrix(rng)
        sparse = [{c: x for c, x in enumerate(r) if x} for r in mat]
        before = [dict(r) for r in sparse]
        assert _echelon_rank(sparse) == _exact_rank(sparse) == int_rank(mat) == frac_rank(mat)
        assert sparse == before  # neither kernel changes its argument
        scales = [rng.choice((-3, 1, 2, PRIME + 1)) for _ in mat]
        M = RigidityMatrix(1, len(mat[0]), [{c: s * x for c, x in r.items()}
                                            for s, r in zip(scales, sparse)])
        assert modp_rank(M) == rank_exact(M) == int_rank(mat)


def test_echelon_rejects_dependent_rows():
    ech = ModpEchelon()
    assert ech.try_add({0: 2, 3: -1})
    assert ech.try_add({3: 5})
    assert not ech.try_add({0: 7})  # 7/2 * row0 + 7/10 * row1
    assert not ech.try_add({})
    assert not ech.try_add({1: 2 ** 61 - 1})  # zero mod p
    assert ech.rank == 2


def test_echelon_rank_equals_int_rank_on_rigidity_matrices():
    rng = random.Random(23)
    for d in (1, 2, 3):
        for seed in range(15):
            n = rng.randint(2, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(1, len(pairs))))
            T = frozenset(rng.sample(range(n), rng.randint(1, min(3, n))))
            rows = _sparse_rows(g, _sample_points(g, T, d, seed), d)
            p = sample_T_coincident(g, T, d, seed)
            assert _echelon_rank(rows.values()) == rank_exact(rigidity_matrix(g, p))


def test_echelon_skips_a_lead_that_is_zero_mod_p():
    ech = ModpEchelon()
    assert ech.try_add({5: 2 ** 61 - 1, 2: 3})
    assert list(ech.pivots) == [2]  # leads on column 2, not 5
    assert not ech.try_add({2: 1})
    assert ech.try_add({5: 1})
    assert ech.rank == 2


def test_echelon_pivot_with_an_entry_zero_mod_p_reduces_a_row():
    ech = ModpEchelon()
    assert ech.try_add({3: 1, 1: PRIME})  # stored raw: column 1 holds PRIME
    assert not ech.try_add({3: 2})  # column 1 cancels in r without a KeyError
    assert ech.try_add({1: 5})
    assert ech.rank == 2


def test_echelon_negative_and_large_leads():
    ech = ModpEchelon()
    assert ech.try_add({2: -3, 0: 1})
    assert ech.try_add({1: PRIME + 4})
    assert not ech._inv  # no pivot has reduced a row yet
    assert not ech.try_add({2: PRIME + 6, 0: -2})  # -2 times row 0 mod p
    assert not ech.try_add({1: -8, 0: 0})  # -2 times row 1 mod p
    assert ech._inv[2] * -3 % PRIME == 1 and ech._inv[1] * 4 % PRIME == 1
    assert ech.try_add({2: 6, 0: 1})
    assert ech.rank == 3


def test_echelon_keeps_a_copy_of_each_row():
    ech = ModpEchelon()
    row = {1: 1, 0: PRIME}
    assert ech.try_add(row)
    assert row == {1: 1, 0: PRIME}  # the argument is unchanged
    row[0] = 1  # the pivot kept the row as it was fed
    assert ech.pivots[1] == {1: 1, 0: PRIME}
    assert not ech.try_add({1: 2})
    assert ech.try_add(row)


@pytest.mark.parametrize("seed, T, rank", [
    (4, (0, 1, 2), 55), (8, (0, 1, 2), 55), (11, (0, 1, 2), 53),
    (11, (0, 1, 29), 54), (11, (0, 15, 29), 56)])
def test_exact_rank_equals_bareiss_on_rank_deficient_coincident_samples(seed, T, rank):
    # 30 vertices, the largest exact-rational input: every trial falls
    # short of its cap, so generic_rank confirms each with the sparse kernel
    g = henneberg_random(30, seed)
    assert generic_rank(g, T, 2).rank == rank < len(g.edges) == 57
    for t in range(linalg.TRIALS):
        rows = linalg._trial_rows(g, frozenset(T), 2, 0, t).values()
        dense = [[row.get(c, 0) for c in range(2 * g.n)] for row in rows]
        assert _exact_rank(rows) == int_rank(dense) == frac_rank(dense) == rank


def _every_trial_report(g, T, d, seed, rep):
    """``rep`` with the best rank of all its trials, each drawn and every
    row ranked, with no cap: by Bareiss on the exact-rational path, mod p
    above it."""
    ranks = []
    for t in range(rep.trials):
        rows = linalg._trial_rows(g, frozenset(T), d, seed, t).values()
        if g.n <= linalg.EXACT_VERTEX_LIMIT:
            ranks.append(int_rank([[row.get(c, 0) for c in range(d * g.n)] for row in rows]))
        else:
            ranks.append(_echelon_rank(rows))
    best = max(ranks)
    return dataclasses.replace(rep, rank=best, rigid=best == rep.target,
                               independent=best == len(g.edges))


def test_exact_path_matches_all_bareiss_reports():
    f = fixtures()["fig4"]
    rep = generic_rank(f.graph, f.T, 2, seed=1)
    assert rep.rank == 12 and rep.target == 13  # not T-rigid
    assert rep == _every_trial_report(f.graph, f.T, 2, 1, rep)
    assert rep.method == "exact-rational"
    rng = random.Random(29)
    for d in (1, 2, 3):
        for seed in range(12):
            n = rng.randint(1, 8)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            T = rng.sample(range(n), rng.randint(1, n))
            rep = generic_rank(g, T, d, seed=seed)
            assert rep == _every_trial_report(g, T, d, seed, rep)


def test_exact_confirm_skipped_when_every_trial_reaches_its_cap(monkeypatch):
    confirms = []
    real = linalg._exact_rank
    monkeypatch.setattr(linalg, "_exact_rank",
                        lambda rows: confirms.append(rows) or real(rows))
    for name, f in fixtures().items():
        if name == "fig4":
            continue
        rep = generic_rank(f.graph, f.T, 2, seed=1)
        assert rep.rank == min(len(f.graph.edges), rep.target)
    assert confirms == []
    generic_rank(fixtures()["fig4"].graph, {0, 1, 2}, 2, seed=1)
    assert len(confirms) == 3  # each fig4 trial falls short of 13 and is confirmed


def test_exact_confirmation_reuses_the_drawn_points(monkeypatch):
    # every fig4 trial falls short and is confirmed exactly, from the
    # points that trial already drew: no realization is sampled again
    f = fixtures()["fig4"]
    want = generic_rank(f.graph, f.T, 2, seed=1)

    def redraw(*args):
        raise AssertionError("points drawn twice")

    monkeypatch.setattr(linalg, "sample_T_coincident", redraw)
    monkeypatch.setattr(linalg, "rigidity_matrix", redraw)
    assert generic_rank(f.graph, f.T, 2, seed=1) == want


def test_trials_stop_at_the_pebble_bound(monkeypatch):
    drawn, confirms = [], []
    rows, rank = linalg._trial_rows, linalg._exact_rank
    monkeypatch.setattr(linalg, "_trial_rows",
                        lambda g, T, d, seed, t: drawn.append(t) or rows(g, T, d, seed, t))
    monkeypatch.setattr(linalg, "_exact_rank",
                        lambda rows: confirms.append(rows) or rank(rows))
    # vertex 23 has degree 2 and T holds it and its neighbour 11, so G' is
    # flexible: the bound 116 is below min(|E|, 2n - 3) = 117, and trial 0
    # reaches it
    g = henneberg_random(60, 1)
    extra = [p for p in combinations(range(60), 2) if p not in g.edges]
    random.Random(1).shuffle(extra)
    g = g.add_edges(extra[:3])
    assert pebble_rank_23(g.minus_T_edges({11, 23})) == 116
    assert generic_rank(g, {11, 23}, 2).rank == 116
    assert drawn == [0]
    drawn.clear()
    assert generic_rank(complete_graph(4), {0, 1}, 2).rank == 5
    assert drawn == [0] and confirms == []
    # fig4's G' is rigid, but every T-coincident trial falls short of 13
    drawn.clear()
    f = fixtures()["fig4"]
    assert generic_rank(f.graph, f.T, 2, seed=1).rank == 12
    assert drawn == [0, 1, 2] and len(confirms) == 3
    # in d = 3 the bound is |E|: K5 ranks 9 of its 10 edges
    drawn.clear()
    assert generic_rank(complete_graph(5), {0}, 3).rank == 9
    assert drawn == [0, 1, 2]


def test_exact_path_trials_stop_at_the_cap(monkeypatch):
    # a rigid 30-vertex input with two dependent edges: the exact-rational
    # path, too, stops trial 0 at its last basis row and never feeds the
    # rows of the two rejected edges
    g = henneberg_random(30, 1)
    extra = [p for p in combinations(range(30), 2) if p not in g.edges]
    random.Random(1).shuffle(extra)
    g = g.add_edges(extra[:2])
    fed = []
    real = ModpEchelon.try_add
    monkeypatch.setattr(ModpEchelon, "try_add", lambda ech, row: fed.append(row) or real(ech, row))
    for T in ({0}, {0, 29}):
        basis, reached, _ = pebble_basis_23(g.minus_T_edges(T))
        assert len(basis) == 57 and len(reached) == 2
        fed.clear()
        rep = generic_rank(g, T, 2)
        assert (rep.rank, rep.rigid, rep.method) == (57, True, "exact-rational")
        assert len(fed) == 57 < len(g.edges) == 59


def test_stopping_at_the_pebble_bound_matches_every_trial_over_the_graph_atlas():
    # every graph on at most 6 vertices and every T with |T| <= 3
    nx = pytest.importorskip("networkx")
    cases = 0
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n > 6:
            break
        g = Graph(n, list(atlas_graph.edges()))
        for k in (1, 2, 3):
            for T in combinations(range(n), k):
                rep = generic_rank(g, T, 2, seed=cases)
                assert rep == _every_trial_report(g, T, 2, cases, rep), (g.edge_list(), T)
                cases += 1
    assert cases == 7435


def test_stopping_at_the_cap_matches_every_trial_on_random_graphs():
    rng = random.Random(37)
    for d in (1, 2, 3):
        for seed in range(6):
            n = rng.randint(2, 40)
            pairs = list(combinations(range(n), 2))
            m = min(len(pairs), rng.randint(d * n - 6, d * n + 2))
            g = Graph(n, rng.sample(pairs, max(m, 0)))
            T = rng.sample(range(n), rng.randint(1, min(3, n)))
            rep = generic_rank(g, T, d, seed=seed)
            assert rep == _every_trial_report(g, T, d, seed, rep), (d, seed)


def henneberg_plus(n, seed):
    """A Henneberg graph on n vertices plus n // 20 random extra edges."""
    g = henneberg_random(n, seed)
    extra = [p for p in combinations(range(n), 2) if p not in g.edges]
    return g.add_edges(random.Random(seed).sample(extra, n // 20))


def test_cap_game_rejections_recount():
    # each rejected edge's reached set holds it and spans at least
    # 2|R| - 3 accepted edges, so the basis is as large as pebble_rank_23
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 40)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, min(len(pairs), rng.randint(n, 3 * n))))
        basis, reached, game = pebble_basis_23(g)
        assert len(basis) == pebble_rank_23(g) == game.accepted
        # the final game holds the basis, oriented
        assert sorted(tuple(sorted((v, w))) for v, heads in enumerate(game.out)
                      for w in heads) == sorted(basis)
        assert sorted(basis + list(reached)) == g.edge_list()
        # the rejected edges, in the order check's G'/S games take them
        assert list(reached) == [e for e in g.edge_list() if e in reached]
        for (a, b), R in reached.items():
            inside = sum(u in R and v in R for u, v in basis)
            assert a in R and b in R and inside >= 2 * len(R) - 3
        linalg._prove_cap(g, basis, reached)


def test_basis_rows_first_match_every_trial_above_the_exact_limit():
    # a trial stops at the row that reaches the cap, and above the exact
    # limit its mod-p rank is not confirmed; ranking every row of every
    # trial gives the same report
    for n in (31, 45, 60, 120):
        for k in (2, 3):
            for seed in range(3):
                g = henneberg_plus(n, seed)
                T = random.Random(n + seed).sample(range(n), k)
                rep = generic_rank(g, T, 2, seed=seed)
                assert rep.method == "prime-field"
                assert rep == _every_trial_report(g, T, 2, seed, rep), (n, T, seed)


def test_rows_past_the_basis_are_fed_when_a_trial_falls_short(monkeypatch):
    # fig4 grown by 0-extensions to 40 vertices keeps its T-coincident
    # flex, so every trial's basis rows fall short of the cap; a K4 on
    # 4, 7, 8, 9 gives G' one rejected edge, whose row is fed too
    f = fixtures()["fig4"]
    g = zero_extension(zero_extension(f.graph, 4, 7), 4, 8).add_edges([(7, 9)])
    rng = random.Random(3)
    while g.n < 40:
        g = zero_extension(g, *rng.sample(range(g.n), 2))
    basis, reached, _ = pebble_basis_23(g.minus_T_edges(f.T))
    assert len(basis) == 77 and list(reached) == [(8, 9)]
    fed = []
    real = ModpEchelon.try_add
    monkeypatch.setattr(ModpEchelon, "try_add", lambda ech, row: fed.append(row) or real(ech, row))
    rep = generic_rank(g, f.T, 2, seed=1)
    assert (rep.rank, rep.target, rep.method) == (76, 77, "prime-field")
    assert len(fed) == 3 * len(g.edges)  # three trials, every row
    assert rep == _every_trial_report(g, f.T, 2, 1, rep)
