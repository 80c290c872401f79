import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from coinrig import linalg
from coinrig.checks import fixtures
from coinrig.graph import Graph, complete_graph
from coinrig.linalg import (PRIME, ModpEchelon, Realization,
                            RigidityMatrix, _sample_points, _sparse_rows,
                            _trial_seed, generic_rank, generic_realization,
                            int_rank, is_infinitesimally_rigid, rank_exact,
                            rank_modp, rigidity_matrix, rigidity_target,
                            sample_T_coincident)
from coinrig.matroid import rt_oracle


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
        if sum(a * b for a, b in zip(row, vec)):
            return False
    return True


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
    assert M.rows[0] == [F(-1), F(0), F(1), F(0)]
    assert rank_exact(M) == 1


def test_coincident_edge_gives_zero_row():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(2), F(3)), 1: (F(2), F(3))})
    M = rigidity_matrix(g, p)
    assert M.rows[0] == [F(0)] * 4
    assert rank_exact(M) == 0
    assert rank_modp(M) == 0


def test_triangle_rank():
    g = complete_graph(3)
    p = Realization(2, {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))})
    M = rigidity_matrix(g, p)
    assert rank_exact(M) == 3
    assert rank_modp(M) == 3


def test_missing_coordinates_error():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0))})
    with pytest.raises(ValueError, match="no coordinates"):
        rigidity_matrix(g, p)


def test_int_rank_against_fraction_gauss():
    # oracle: plain Gaussian elimination over Fractions
    def frac_rank(rows):
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
        p = generic_realization(g, 2, seed)
        M = rigidity_matrix(g, p)
        assert rank_modp(M) <= rank_exact(M)
        assert rank_modp(M) == rank_exact(M)  # equality on all sampled instances


def test_rank_modp_rejects_denominator_divisible_by_prime():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0)), 1: (Fraction(1, PRIME), F(1))})
    with pytest.raises(ValueError, match="divisible by the prime"):
        rank_modp(rigidity_matrix(g, p))


def test_rigidity_thresholds():
    g = Graph(2, [(0, 1)])
    p = Realization(2, {0: (F(0), F(0)), 1: (F(5), F(1))})
    assert is_infinitesimally_rigid(g, p)  # rank 1 = 2*2-3
    path = Graph(3, [(0, 1), (1, 2)])
    q = generic_realization(path, 2, 7)
    assert not is_infinitesimally_rigid(path, q)
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
    with pytest.raises(ValueError, match="invalid vertex"):
        _sample_points(Graph(3, []), frozenset({0, 3}), 2, 0)


def test_generic_rank_report_fields():
    K4 = complete_graph(4)
    rep = generic_rank(K4, {0, 1}, 2, trials=3, seed=1)
    assert rep.rank == 5 and rep.target == 5
    assert rep.rigid and not rep.independent  # |E| = 6 > 5
    assert rep.method == "exact-rational"
    assert "Schwartz-Zippel" in rep.note
    K3 = complete_graph(3)
    rep3 = generic_rank(K3, {0, 1}, 2, trials=3, seed=1)
    assert rep3.rank == 2 and not rep3.rigid


def test_rank_upper_bound_and_monotonicity():
    rng = random.Random(11)
    for seed in range(25):
        n = rng.randint(2, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(1, len(pairs))
        chosen = rng.sample(pairs, m)
        g = Graph(n, chosen)
        rep = generic_rank(g, {0}, 2, trials=2, seed=seed)
        assert rep.rank <= min(len(g.edges), rigidity_target(n, 2))
        if m >= 2:
            sub = Graph(n, chosen[:-1])
            sub_rep = generic_rank(sub, {0}, 2, trials=2, seed=seed)
            assert sub_rep.rank <= rep.rank


def test_rigid_motions_lie_in_kernel():
    rng = random.Random(13)
    for d in (2, 3):
        for seed in range(8):
            n = rng.randint(d, 6)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            p = generic_realization(g, d, seed)
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
        pT = generic_realization(gT, 2, seed)
        lifted = lift_contracted_realization(g, T, pT)
        for v in T:
            assert lifted.point(v) == lifted.point(min(T))
        lhs = rank_exact(rigidity_matrix(g, lifted))
        rhs = rank_exact(rigidity_matrix(gT, pT)) + 2 * (len(T) - 1)
        assert lhs <= rhs


def test_realization_json_roundtrip():
    p = Realization(2, {0: (F(1) / 3, F(-2)), 1: (F(0), F(5) / 7)})
    q = Realization.from_json(p.to_json())
    assert q.dim == 2 and q.coords == p.coords


def _echelon_rank(rows) -> int:
    ech = ModpEchelon()
    for row in rows:
        ech.try_add(row)
    return ech.rank


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
        assert _echelon_rank(sparse) == int_rank(mat)
        assert sparse == before  # try_add leaves its argument unchanged
        scales = [Fraction(rng.choice((-3, 1, 2)), rng.randint(1, 9)) for _ in mat]
        frac_rows = [[s * x for x in r] for s, r in zip(scales, mat)]
        M = RigidityMatrix(1, len(mat[0]), frac_rows)
        assert rank_modp(M) == rank_exact(M) == int_rank(mat)


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


def _bareiss_report(g, T, d, trials, seed):
    """The report of generic_rank with every trial ranked by Bareiss."""
    rep = generic_rank(g, T, d, trials=trials, seed=seed)
    best = max(rank_exact(rigidity_matrix(g, sample_T_coincident(g, T, d, _trial_seed(seed, t))))
               for t in range(trials))
    return dataclasses.replace(rep, rank=best, rigid=best == rep.target,
                               independent=best == len(g.edges))


def test_exact_path_matches_all_bareiss_reports():
    f = fixtures()["fig4"]
    rep = generic_rank(f.graph, f.T, 2, trials=3, seed=1)
    assert rep.rank == 12 and rep.target == 13  # not T-rigid
    assert rep == _bareiss_report(f.graph, f.T, 2, 3, 1)
    assert rep.method == "exact-rational"
    rng = random.Random(29)
    for d in (1, 2, 3):
        for seed in range(12):
            n = rng.randint(1, 8)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            T = rng.sample(range(n), rng.randint(1, n))
            assert (generic_rank(g, T, d, trials=2, seed=seed)
                    == _bareiss_report(g, T, d, 2, seed))


def test_bareiss_skipped_when_every_trial_reaches_its_cap(monkeypatch):
    calls = []
    real = linalg.rank_exact
    monkeypatch.setattr(linalg, "rank_exact", lambda M: calls.append(M) or real(M))
    for name, f in fixtures().items():
        if name == "fig4":
            continue
        rep = generic_rank(f.graph, f.T, 2, trials=3, seed=1)
        assert rep.rank == min(len(f.graph.edges), rep.target)
    assert calls == []
    generic_rank(fixtures()["fig4"].graph, {0, 1, 2}, 2, trials=3, seed=1)
    assert len(calls) == 3  # each fig4 trial falls short of 13 and is confirmed


def test_exact_confirmation_reuses_the_drawn_points(monkeypatch):
    # every fig4 trial falls short and is confirmed by Bareiss, from the
    # points that trial already drew: no realization is sampled again
    f = fixtures()["fig4"]
    want = generic_rank(f.graph, f.T, 2, trials=3, seed=1)

    def redraw(*args):
        raise AssertionError("points drawn twice")

    monkeypatch.setattr(linalg, "sample_T_coincident", redraw)
    monkeypatch.setattr(linalg, "rigidity_matrix", redraw)
    assert generic_rank(f.graph, f.T, 2, trials=3, seed=1) == want


def test_empty_T_is_refused_by_name():
    g = complete_graph(4)
    for call in (lambda: generic_rank(g, set(), 2),
                 lambda: sample_T_coincident(g, set(), 2, 0),
                 lambda: rt_oracle(g, set())):
        with pytest.raises(ValueError, match="T must be nonempty"):
            call()
