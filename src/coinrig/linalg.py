"""Exact rigidity-matrix construction and rank computation.

All arithmetic is exact: coordinates are rationals and no floating point is
used anywhere.  One builder lays out every rigidity row (``_sparse_rows``):
a sparse dict of integers, p(u) - p(v) at u's columns and its negation at
v's, built from integer points.  A sample's points are integers already;
``rigidity_matrix`` scales an explicit realization's rational points by one
common denominator first.  Every sampled rank comes from one incremental
sparse row echelon over GF(2^61 - 1) (``ModpEchelon``).  Rows independent
mod p are independent over the rationals, so a mod-p rank is a certified
lower bound.  A sparse fraction-free echelon over the integers with the
same layout (``_exact_rank``) computes exact ranks: of an explicit
realization's matrix (``rank_exact``), and of a sample's rows when their
mod-p rank falls short of its upper bound on the exact-rational path, which
the vertex count alone selects (``EXACT_VERTEX_LIMIT``).  In the plane that
bound is the generic rank of G', the graph minus its T-internal edges, from
the (2,3) pebble game on g's edges less those inside T
(``pebble.pebble_basis_23``; this module plays no game of its own): a fact
about R_2, not the coincidence theorem, so the rank verdict stays
independent of the strong-sparsity one.  ``check`` plays that game once and
hands its final state to the deletion/contraction side too; the rank
verdict trusts neither its basis nor its orientation, since the game
recounts each rejection as it makes it and the rank comes from the trials'
echelons.
``generic_rank`` draws at most ``TRIALS`` samples, a fixed count that no
caller overrides, and stops at the first trial that reaches the bound; its
report's ``trials`` is ``TRIALS``, not the number drawn.

In the plane a trial feeds the rows of the bound's basis first: the edges
the (2,3) game accepts (``pebble_basis_23``), played in ``edge_list`` order
because its accepted set is the row set fed first; the game's count rule
takes most of those edges with no pebble search.  At every size the other
rows are fed only while the rank is short of the bound.  The game recounts
each edge it rejects when it rejects it: the vertex set its failed gather
reached spans at least 2|R| - 3 edges of the accepted list, so the edge
lies in the R_2 closure of the basis and no trial can rank above it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable

from .graph import Graph
from .pebble import InvariantError, pebble_basis_23

COORD_BOUND = 1 << 20
PRIME = (1 << 61) - 1
EXACT_VERTEX_LIMIT = 30
# sampled realizations per rank, with no override; the rt oracle and
# generic_rank must use the same trials, so that trial t's rows are the same
# in both
TRIALS = 3


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


@dataclass
class RigidityMatrix:
    """|E| x d|V| matrix as sparse integer rows (dicts column -> entry), in
    ``edge_list`` order; row uv holds p(u)-p(v) and p(v)-p(u), all scaled
    by one positive integer."""

    dim: int
    n: int
    rows: list[dict[int, int]]

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
        return asdict(self)


def rigidity_target(n: int, d: int) -> int:
    """Rank of an infinitesimally rigid framework: d|V|-C(d+1,2), small-|V| cased."""
    if n >= d:
        return d * n - comb(d + 1, 2)
    return comb(n, 2)


def rigidity_matrix(g: Graph, p: Realization) -> RigidityMatrix:
    """The rows of ``_sparse_rows`` at p's points, each coordinate times the
    lcm of all their denominators: one scalar for every row keeps the rank.
    An edge end with no point raises ``ValueError``."""
    scale = lcm(*(c.denominator for pt in p.coords.values() for c in pt))
    pts = {v: tuple(int(c * scale) for c in p.point(v))
           for e in g.edge_list() for v in e}
    return RigidityMatrix(p.dim, g.n, list(_sparse_rows(g, pts, p.dim).values()))


# -- exact rank --------------------------------------------------------


def _exact_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of sparse integer rows (dicts column -> int).

    Fraction-free elimination over the integers with ``ModpEchelon``'s
    layout: each kept row leads on its highest nonzero column.  A row r
    whose lead f sits on the column of a kept row s with lead l becomes
    (l/k) r - (f/k) s, k = gcd(l, f), which clears that column, and each
    row is divided by the gcd of its entries, which removes the common
    factors the cross multiplication brings in.  Rows are scaled by nonzero
    integers only, so a row reduced to zero is in the rational span of the
    kept rows, and the kept rows, with distinct leading columns, are
    independent.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        while r:
            g = gcd(*r.values())
            if g > 1:
                r = {j: x // g for j, x in r.items()}
            c = max(r)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = r
                break
            l, f = prow[c], r[c]
            k = gcd(l, f)
            a, b = l // k, f // k
            if a != 1:
                r = {j: a * x for j, x in r.items()}
            for j, x in prow.items():
                y = r.get(j, 0) - b * x
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
    return len(pivots)


def rank_exact(M: RigidityMatrix) -> int:
    """Exact rank over the rationals."""
    return _exact_rank(M.rows)


class ModpEchelon:
    """Incremental row echelon over GF(PRIME) of sparse integer rows.

    A row is a dict column -> integer.  Each kept row leads on its highest
    column nonzero mod PRIME and is stored as it was reduced, unnormalized:
    entries may be raw input integers, negative, above PRIME or 0 mod PRIME.
    The inverse of a kept row's lead is computed the first time that row
    reduces another, and cached, so a pivot that never reduces a row costs
    no inversion.  A rigidity row leads on its higher endpoint; when
    vertices are numbered in Henneberg construction order that endpoint is
    the later vertex, so a row reduces against rows of its own and earlier
    vertices and fill-in stays local.  Rows independent mod PRIME are
    independent over the rationals, so ``rank`` never exceeds the exact
    rank.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}  # leading column -> row
        self._inv: dict[int, int] = {}  # leading column -> lead^-1 mod PRIME

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def try_add(self, row: dict[int, int]) -> bool:
        """Reduce a copy of ``row`` and keep it iff it is independent."""
        p = PRIME
        pivots, inv = self.pivots, self._inv
        r = dict(row)
        while r:
            c = max(r)
            lead = r[c] % p
            if not lead:
                del r[c]
                continue
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = r
                return True
            i = inv.get(c)
            if i is None:
                i = inv[c] = pow(prow[c], -1, p)
            f = lead * i % p
            for j, x in prow.items():
                y = (r.get(j, 0) - f * x) % p
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
        return False


def _sparse_rows(g: Graph, pts: list[tuple[int, ...]] | dict[int, tuple[int, ...]],
                 d: int) -> dict[tuple[int, int], dict[int, int]]:
    """Edge -> rigidity-matrix row as a sparse dict, from integer points
    indexed by vertex; a zero entry is left out."""
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


# -- sampling ----------------------------------------------------------


def _check_sample_args(g: Graph, T: Iterable[int], d: int) -> frozenset[int]:
    """T as a frozenset, once T and the dimension d are checked."""
    ts = g._check_T(T)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return ts


def _sample_points(g: Graph, T: frozenset[int], d: int,
                   seed: int) -> list[tuple[int, ...]]:
    """The integer points of ``sample_T_coincident``, indexed by vertex;
    callers check the arguments once (``_check_sample_args``), not per trial."""
    bits = random.Random(seed).getrandbits
    span = 2 * COORD_BOUND
    k = (span + 1).bit_length()
    ref = min(T)
    pts: list[tuple[int, ...]] = []
    for v in range(g.n):
        if v > ref and v in T:
            pts.append(pts[ref])
            continue
        pt = []
        for _ in range(d):
            r = bits(k)
            while r > span:
                r = bits(k)
            pt.append(r - COORD_BOUND)
        pts.append(tuple(pt))
    return pts


def sample_T_coincident(g: Graph, T: Iterable[int], d: int, seed: int) -> Realization:
    """Random integer realization with all of T at the point of min(T).

    Coordinates of min(T) and of every vertex outside T are independent
    uniform integers in [-2^20, 2^20], drawn in vertex-id order, so a seed
    fully determines the realization.  Each is ``getrandbits(22)``, drawn
    again while above 2^21, minus 2^20: the stream that
    ``random.Random(seed).randint(-2^20, 2^20)`` gives, without its
    per-call overhead.
    """
    pts = _sample_points(g, _check_sample_args(g, T, d), d, seed)
    return Realization(d, {v: tuple(Fraction(c) for c in pt)
                           for v, pt in enumerate(pts)})


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _trial_rows(g: Graph, T: frozenset[int], d: int, seed: int,
                t: int) -> dict[tuple[int, int], dict[int, int]]:
    """Trial t's rows of ``generic_rank`` and ``rt_oracle``, edge -> sparse row."""
    return _sparse_rows(g, _sample_points(g, T, d, _trial_seed(seed, t)), d)


# -- sampled rank ------------------------------------------------------


def generic_rank(g: Graph, T: Iterable[int], d: int, seed: int = 0) -> RankReport:
    """Max rigidity-matrix rank over sampled generic T-coincident realizations.

    The one sampled rank that takes a dimension d; ``rt_oracle`` and
    ``check_coincident_rigidity`` are planar.  Each of at most
    ``TRIALS`` trials draws ``sample_T_coincident``'s points and ranks
    their rows mod p.  Graphs above ``EXACT_VERTEX_LIMIT`` vertices keep
    that rank ("prime-field"); on smaller ones a trial that falls short of
    its cap is re-ranked exactly from the same sparse rows (``_exact_rank``,
    "exact-rational").
    The result is a certified lower bound on the generic T-coincident rank;
    it equals that rank except with per-trial probability at most
    d*n / (2^21 + 1) by Schwartz-Zippel over the sampling range.

    No trial ranks above the cap.  A T-coincident sample is one realization
    of G', the graph minus its T-internal edges (their rows are zero), and
    a mod-p rank is at most the rational rank, so a trial's rank is at most
    the generic rank of G'.  In the plane that is the size of the (2,3)
    game's basis of G', ``pebble_basis_23`` (Asimow-Roth; Laman): a bound
    from R_2 alone, not from the coincidence theorem, so this verdict stays
    independent of the strong-sparsity one.  In d = 1 the cap is
    min(|E|, target) (the translation lies in the kernel), in d >= 3 it
    is |E|.  A trial that reaches the cap has its rational rank already: it
    skips the exact rank and ends the loop, since no later trial can change
    ``rank``, ``rigid`` or ``independent``.  The report's ``trials`` is
    ``TRIALS``, the most that are drawn, not the number drawn.

    A mod-p rank does not depend on row order, so in the plane each trial
    feeds the basis rows first, then the rest in ``edge_list`` order.  At
    every size a trial stops at the row that brings its rank to the cap,
    most often the last basis row, so the rows of dependent edges, each
    reduced all the way to zero, are rarely fed; the cap is proved instead,
    by the game's recount of each rejection as it makes it, and a rejection
    that fails its recount raises ``InvariantError``.  A trial that falls
    short has been fed every row, and on the exact-rational path its
    confirmed rank is checked against the cap: one above it raises
    ``InvariantError`` too.
    """
    ts = _check_sample_args(g, T, d)
    basis = pebble_basis_23(g, ts)[0] if d == 2 else None
    return _generic_rank(g, ts, d, seed, basis)


def _generic_rank(g: Graph, ts: frozenset[int], d: int, seed: int,
                  basis: list[tuple[int, int]] | None) -> RankReport:
    """``generic_rank`` once T and d are checked.  In the plane ``basis`` is
    the accepted list of ``pebble_basis_23(g, ts)``, the game that
    ``check_coincident_rigidity`` plays once for both of its sides and
    that proved the cap as it played; otherwise it is None.  The trials'
    echelons give the lower bound.
    """
    exact = g.n <= EXACT_VERTEX_LIMIT
    target = rigidity_target(g.n, d)
    order = g.edge_list()
    if d == 2:
        cap = len(basis)
        kept = set(basis)
        order = basis + [e for e in order if e not in kept]
    elif d == 1:
        cap = min(len(g.edges), target)
    else:
        cap = len(g.edges)
    best = 0
    for t in range(TRIALS):
        rows = _trial_rows(g, ts, d, seed, t)
        ech = ModpEchelon()
        for e in order:
            if ech.try_add(rows[e]) and ech.rank == cap:
                break
        r = ech.rank
        if exact and r < cap:
            r = _exact_rank(rows.values())
        if r > cap:
            raise InvariantError(f"trial {t} has rank {r}, above its bound {cap}")
        best = max(best, r)
        if best == cap:
            break
    bound = Fraction(min(d * g.n, len(g.edges)), 2 * COORD_BOUND + 1)
    return RankReport(
        rank=best,
        target=target,
        rigid=best == target,
        independent=best == len(g.edges),
        method="exact-rational" if exact else "prime-field",
        trials=TRIALS,
        seed=seed,
        note=(f"rank is a lower bound on the generic T-coincident rank; "
              f"per-trial failure probability <= {bound} (Schwartz-Zippel)"),
    )
