"""Exact rigidity-matrix construction and rank computation.

All arithmetic is exact: coordinates are rationals and no floating point is
used anywhere.  Every sampled rank comes from one incremental sparse row
echelon over GF(2^61 - 1) (``ModpEchelon``), fed rows built straight from the
integer coordinates of the sample.  Rows independent mod p are independent
over the rationals, so a mod-p rank is a certified lower bound.  Bareiss
fraction-free elimination over the integers (``int_rank``/``rank_exact``)
computes exact ranks of explicit matrices, and confirms a sampled rank that
falls short of its upper bound on the exact-rational path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable

from .graph import Graph

COORD_BOUND = 1 << 20
PRIME = (1 << 61) - 1
EXACT_VERTEX_LIMIT = 30


@dataclass
class Realization:
    """Map vertex -> point with exact rational coordinates."""

    dim: int
    coords: dict[int, tuple[Fraction, ...]]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        for v, pt in self.coords.items():
            if len(pt) != self.dim:
                raise ValueError(f"vertex {v} has a point of wrong dimension")

    def point(self, v: int) -> tuple[Fraction, ...]:
        try:
            return self.coords[v]
        except KeyError:
            raise ValueError(f"no coordinates for vertex {v}") from None

    def to_json(self) -> str:
        return json.dumps({
            "d": self.dim,
            "coords": {str(v): [f"{c.numerator}/{c.denominator}" for c in pt]
                       for v, pt in sorted(self.coords.items())},
        })

    @classmethod
    def from_json(cls, text: str) -> "Realization":
        doc = json.loads(text)
        coords = {int(v): tuple(Fraction(s) for s in pt)
                  for v, pt in doc["coords"].items()}
        return cls(doc["d"], coords)


@dataclass
class RigidityMatrix:
    """|E| x d|V| matrix; row for uv holds p(u)-p(v) and p(v)-p(u)."""

    dim: int
    n: int
    rows: list[list[Fraction | int]]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.dim * self.n)


@dataclass
class RankReport:
    """Rank verdict for one graph/realization family."""

    rank: int
    target: int
    rigid: bool
    independent: bool
    method: str  # "exact-rational" | "prime-field"
    trials: int
    seed: int
    note: str = ""

    def to_dict(self) -> dict:
        return {"rank": self.rank, "target": self.target, "rigid": self.rigid,
                "independent": self.independent, "method": self.method,
                "trials": self.trials, "seed": self.seed, "note": self.note}


def rigidity_target(n: int, d: int) -> int:
    """Rank of an infinitesimally rigid framework: d|V|-C(d+1,2), small-|V| cased."""
    if n >= d:
        return d * n - comb(d + 1, 2)
    return comb(n, 2)


def rigidity_matrix(g: Graph, p: Realization) -> RigidityMatrix:
    d = p.dim
    rows = []
    for u, v in g.edge_list():
        pu, pv = p.point(u), p.point(v)
        row = [Fraction(0)] * (d * g.n)
        for i in range(d):
            row[d * u + i] = pu[i] - pv[i]
            row[d * v + i] = pv[i] - pu[i]
        rows.append(row)
    return RigidityMatrix(d, g.n, rows)


# -- exact rank --------------------------------------------------------


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        mul = 1
        for x in row:
            if isinstance(x, Fraction):
                mul = lcm(mul, x.denominator)
        if mul == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * mul) for x in row])
    return out


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss fraction-free elimination.

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


def rank_exact(M: RigidityMatrix) -> int:
    """Exact rank over the rationals."""
    return int_rank(_integer_rows(M.rows))


class ModpEchelon:
    """Incremental row echelon over GF(PRIME) of sparse integer rows.

    A row is a dict column -> integer.  Each kept row leads on its highest
    nonzero column and is scaled so that entry is 1.  A rigidity row then
    leads on its higher endpoint; when vertices are numbered in Henneberg
    construction order that endpoint is the later vertex, so a row reduces
    against rows of its own and earlier vertices and fill-in stays local.
    Rows independent mod PRIME are independent over the rationals, so
    ``rank`` never exceeds the exact rank.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}  # leading column -> row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def try_add(self, row: dict[int, int]) -> bool:
        """Reduce ``row`` (left unchanged) and keep it iff it is independent."""
        p = PRIME
        r = {c: x % p for c, x in row.items() if x % p}
        while r:
            c = max(r)
            prow = self.pivots.get(c)
            if prow is None:
                inv = pow(r[c], -1, p)
                self.pivots[c] = {j: x * inv % p for j, x in r.items()}
                return True
            f = r[c]
            for j, x in prow.items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:
                    del r[j]
        return False


def rank_modp(M: RigidityMatrix) -> int:
    """Rank of the matrix reduced mod PRIME; never exceeds the exact rank."""
    ech = ModpEchelon()
    for row in M.rows:
        mul = lcm(*(x.denominator for x in row))
        if mul % PRIME == 0:
            raise ValueError("denominator divisible by the prime")
        ech.try_add({c: x.numerator * (mul // x.denominator)
                     for c, x in enumerate(row) if x})
    return ech.rank


def _sparse_rows(g: Graph, pts: list[tuple[int, ...]],
                 d: int) -> dict[tuple[int, int], dict[int, int]]:
    """Edge -> rigidity-matrix row as a sparse dict, from integer points."""
    rows = {}
    for u, v in g.edge_list():
        pu, pv = pts[u], pts[v]
        row = {}
        for i in range(d):
            if pu[i] != pv[i]:
                row[d * u + i] = pu[i] - pv[i]
                row[d * v + i] = pv[i] - pu[i]
        rows[(u, v)] = row
    return rows


def is_infinitesimally_rigid(g: Graph, p: Realization) -> bool:
    return rank_exact(rigidity_matrix(g, p)) == rigidity_target(g.n, p.dim)


# -- sampling ----------------------------------------------------------


def _check_sample_args(g: Graph, T: frozenset[int], d: int):
    if not T:
        raise ValueError("T must be nonempty")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    for v in T:
        if not 0 <= v < g.n:
            raise ValueError(f"T contains invalid vertex {v}")


def _sample_points(g: Graph, T: frozenset[int], d: int,
                   seed: int) -> list[tuple[int, ...]]:
    """The integer points of ``sample_T_coincident``, indexed by vertex."""
    _check_sample_args(g, T, d)
    rng = random.Random(seed)
    ref = min(T)
    pts: list[tuple[int, ...]] = []
    for v in range(g.n):
        if v > ref and v in T:
            pts.append(pts[ref])
        else:
            pts.append(tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(d)))
    return pts


def sample_T_coincident(g: Graph, T: Iterable[int], d: int, seed: int) -> Realization:
    """Random integer realization with all of T at the point of min(T).

    Coordinates of min(T) and of every vertex outside T are independent
    uniform integers in [-2^20, 2^20], drawn in vertex-id order, so a seed
    fully determines the realization.
    """
    pts = _sample_points(g, frozenset(T), d, seed)
    return Realization(d, {v: tuple(Fraction(c) for c in pt)
                           for v, pt in enumerate(pts)})


def generic_realization(g: Graph, d: int, seed: int) -> Realization:
    """Random integer realization with no coincidence constraint."""
    if g.n == 0:
        return Realization(d, {})
    return sample_T_coincident(g, {0}, d, seed)


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def generic_rank(g: Graph, T: Iterable[int], d: int, trials: int = 3,
                 seed: int = 0, use_modp: bool = False) -> RankReport:
    """Max rigidity-matrix rank over sampled generic T-coincident realizations.

    Each trial draws ``sample_T_coincident``'s points and ranks their rows
    mod p.  Graphs above ``EXACT_VERTEX_LIMIT`` vertices, and every graph
    when ``use_modp`` is set, keep that rank; otherwise a trial that falls
    short of its cap is re-ranked exactly (Bareiss) from the same rows.
    The result is a certified lower bound on the generic T-coincident rank;
    it equals that rank except with per-trial probability at most
    d*n / (2^21 + 1) by Schwartz-Zippel over the sampling range.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ts = frozenset(T)
    use_modp = use_modp or g.n > EXACT_VERTEX_LIMIT
    target = rigidity_target(g.n, d)
    # a mod-p rank never exceeds the rational rank, which is at most |E| and,
    # for d <= 2, at most the target (the translations and the rotation lie
    # in the kernel; if all points coincide every row is zero): a trial that
    # reaches this cap has its rational rank already
    cap = min(len(g.edges), target) if d <= 2 else len(g.edges)
    best = 0
    for t in range(trials):
        rows = _sparse_rows(g, _sample_points(g, ts, d, _trial_seed(seed, t)), d).values()
        ech = ModpEchelon()
        for row in rows:
            ech.try_add(row)
        r = ech.rank
        if not use_modp and r < cap:
            dense = [[row.get(c, 0) for c in range(d * g.n)] for row in rows]
            r = rank_exact(RigidityMatrix(d, g.n, dense))
        best = max(best, r)
    bound = Fraction(min(d * g.n, len(g.edges)), 2 * COORD_BOUND + 1)
    return RankReport(
        rank=best,
        target=target,
        rigid=best == target,
        independent=best == len(g.edges),
        method="prime-field" if use_modp else "exact-rational",
        trials=trials,
        seed=seed,
        note=(f"rank is a lower bound on the generic T-coincident rank; "
              f"per-trial failure probability <= {bound} (Schwartz-Zippel)"),
    )
