"""Fixed-seed inputs for the three benchmark workloads.

Each workload is a list of operations, one ``coinrig`` CLI call each, built
from the run seed alone.  Operations come in blocks with an exact size mix;
the measuring loop runs whole blocks, so the mix holds in every run however
many blocks fit into its time.  Why each workload and each size class is
there is written in ``README.md`` beside this file.

This module imports ``coinrig``: it is loaded inside the timed set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from coinrig.constructions import henneberg_random
from coinrig.graph import Graph, graph_to_json
from coinrig.matroid import greedy_rank, mt_oracle

# Size tables: "full" is the benchmark, "smoke" the harness self-test.
# check-large: (n, ops per block); the mix puts the median inside n=120 and
# the tail order statistic inside n=250 (README, "size mix").
CHECK_MIX = {"full": ((30, 1), (60, 1), (120, 4), (250, 2)),
             "smoke": ((8, 1), (9, 1), (10, 2), (12, 1))}
# Six blocks give twelve n=250 graphs per seed: their elimination fill-in,
# and so their time, differs by up to 1.5x between graphs.
CHECK_BLOCKS = {"full": 6, "smoke": 1}
XVAL_ARGS = {"full": ("--n-max", "8", "--t-sizes", "1,2,3", "--samples", "100"),
             "smoke": ("--n-max", "6", "--t-sizes", "1,2,3", "--samples", "6")}
XVAL_CALLS = {"full": 25, "smoke": 2}
# certify: every block holds two sets of sparse --strong calls, at each
# (n, |T|) once on a greedy base and once with a rejected edge added
# (blocks cycle through SPARSE_SETS such sets, so each sparse input recurs
# in several blocks of a run), then distinct mrank --witness calls at
# |T| = 3, (n, calls per block).  Sorted, a block's 38 calls are 12
# dependent sparse calls (3-4 ms), 12 independent ones two per (n, |T|)
# (4-60 ms), 11 n=8 and 3 n=9: the median falls on the two independent
# n=10 |T|=4 calls (about 12 ms), the steadiest class between seeds, and
# the tail inside the n=9 class.  n=9 cover minima vary about twofold
# between graphs and the tail sits near the hardest of them, so each seed
# draws 48 n=9 graphs.
CERTIFY_SPARSE = {"full": ((10, 12), (2, 3, 4)), "smoke": ((6, 7), (2, 3))}
CERTIFY_SPARSE_SETS = {"full": 8, "smoke": 1}
CERTIFY_SETS_PER_BLOCK = 2
CERTIFY_MRANK = {"full": ((8, 11), (9, 3)), "smoke": ((5, 1), (6, 1))}
CERTIFY_BLOCKS = {"full": 16, "smoke": 1}


@dataclass
class Op:
    """One CLI call: ``argv`` with ``{graph}`` standing for its input file."""

    label: str            # size class, e.g. "check n=120"
    argv: list[str]
    graph_doc: str | None = None   # JSON written to the input file
    verdicts: int = 1     # instances decided by the call
    expect: dict = field(default_factory=dict)  # facts known by construction
    path: str | None = None

    def resolved_argv(self) -> list[str]:
        return [self.path if a == "{graph}" else a for a in self.argv]


@dataclass
class Pool:
    ops: list[Op]
    block: int            # operations per block; len(ops) is a multiple

    def write_inputs(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(self.ops):
            if op.graph_doc is not None:
                op.path = str(workdir / f"g{i:04d}.json")
                with open(op.path, "w") as fh:
                    fh.write(op.graph_doc)


def _with_extra_edges(g: Graph, k: int, rng: random.Random) -> Graph:
    absent = [p for p in combinations(range(g.n), 2) if p not in g.edges]
    return g.add_edges(rng.sample(absent, min(k, len(absent))))


def _check_pool(seed: int, scale: str) -> Pool:
    rng = random.Random(f"check-large:{seed}")
    ops = []
    for _ in range(CHECK_BLOCKS[scale]):
        for n, count in CHECK_MIX[scale]:
            for _ in range(count):
                g = henneberg_random(n, rng.getrandbits(32))
                g = _with_extra_edges(g, max(1, n // 20), rng)
                T = rng.sample(range(n), rng.choice((2, 3)))
                ops.append(Op(f"check n={n}",
                              ["check", "--graph", "{graph}",
                               "--seed", str(rng.getrandbits(31))],
                              graph_to_json(g, T), expect={"n": n}))
    return Pool(ops, len(ops) // CHECK_BLOCKS[scale])


def _xval_pool(seed: int, scale: str) -> Pool:
    rng = random.Random(f"xval-sweep:{seed}")
    args = XVAL_ARGS[scale]
    samples = int(args[args.index("--samples") + 1])
    ops = [Op("xval", ["xval", *args, "--seed", str(rng.getrandbits(31))],
              verdicts=samples, expect={"samples": samples})
           for _ in range(XVAL_CALLS[scale])]
    return Pool(ops, 1)


def _random_graph(n: int, m: int, rng: random.Random) -> Graph:
    return Graph(n, rng.sample(list(combinations(range(n), 2)), m))


def _sparse_set(sizes, t_sizes, rng: random.Random) -> list[Op]:
    ops = []
    argv = ["sparse", "--strong", "--graph", "{graph}"]
    for n in sizes:
        for t in t_sizes:
            # greedy strong-sparsity base of a random graph with 3n edges
            ground = _random_graph(n, min(3 * n, n * (n - 1) // 2), rng)
            T = rng.sample(range(n), t)
            base = list(greedy_rank(mt_oracle(ground, T)).base)
            rejected = [e for e in ground.edge_list() if e not in base]
            ops.append(Op(f"sparse n={n} |T|={t} independent", argv,
                          graph_to_json(Graph(n, base), T), expect={"sparse": True}))
            dependent = Graph(n, base + [rng.choice(rejected)])
            ops.append(Op(f"sparse n={n} |T|={t} dependent", argv,
                          graph_to_json(dependent, T), expect={"sparse": False}))
    return ops


def _certify_pool(seed: int, scale: str) -> Pool:
    rng = random.Random(f"certify:{seed}")
    sparse_sets = [_sparse_set(*CERTIFY_SPARSE[scale], rng)
                   for _ in range(CERTIFY_SPARSE_SETS[scale])]
    ops = []
    for b in range(CERTIFY_BLOCKS[scale]):
        for j in range(CERTIFY_SETS_PER_BLOCK):
            ops.extend(sparse_sets[(CERTIFY_SETS_PER_BLOCK * b + j) % len(sparse_sets)])
        for n, count in CERTIFY_MRANK[scale]:
            for _ in range(count):
                g = _random_graph(n, 2 * n - 3 + rng.randint(-1, 2), rng)
                T = rng.sample(range(n), 3)
                ops.append(Op(f"mrank n={n}", ["mrank", "--witness", "--graph", "{graph}"],
                              graph_to_json(g, T)))
    return Pool(ops, len(ops) // CERTIFY_BLOCKS[scale])


_BUILDERS = {"check-large": _check_pool, "xval-sweep": _xval_pool,
             "certify": _certify_pool}


def make_pool(name: str, seed: int, scale: str = "full") -> Pool:
    """The operations of workload ``name`` for run seed ``seed``."""
    return _BUILDERS[name](seed, scale)


def input_key(op: Op) -> str:
    """Content key of an operation: its argv and input document."""
    return json.dumps([op.argv, op.graph_doc], separators=(",", ":"))
