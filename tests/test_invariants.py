"""Proof-step bounds raise InvariantError, also under ``python -O``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import coinrig.constructions
from coinrig import InvariantError
from coinrig.constructions import reduce_low_degree
from coinrig.graph import Graph
from coinrig.sparsity import SparsityViolation

ROOT = Path(__file__).resolve().parents[1]


def test_reduce_low_degree_without_admissible_pair_raises(monkeypatch):
    # pretend the input is strongly sparse but none of its three reductions is
    g = Graph(5, [(3, 0), (3, 1), (3, 2), (0, 4)])
    calls = []
    bad = SparsityViolation("set", frozenset({0}), frozenset({0, 1}), 1, 0)

    def fake(graph, T, cap):
        calls.append(graph)
        return None if len(calls) == 1 else bad

    monkeypatch.setattr(coinrig.constructions, "is_strongly_T_sparse", fake)
    with pytest.raises(InvariantError, match="admissible"):
        reduce_low_degree(g, {4}, 3)
    assert len(calls) == 4


SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import coinrig.matroid, coinrig.sparsity
    from coinrig import InvariantError
    from coinrig.cli import main
    from coinrig.sparsity import CompatibleFamily, merge_overlapping

    fam = CompatibleFamily({0}, ({0, 1, 2}, {0, 2, 3}))
    real = coinrig.sparsity.val_family
    coinrig.sparsity.val_family = lambda f: 0
    try:
        merge_overlapping(fam)
        merge = "returned"
    except InvariantError:
        merge = "InvariantError"
    coinrig.sparsity.val_family = real

    coinrig.matroid.min_thin_cover = lambda *a, **k: None
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["mrank", "--graph", sys.argv[1], "--T", "0,1", "--witness"])
    print(json.dumps({"optimize": sys.flags.optimize, "merge": merge,
                      "code": code, "stderr": err.getvalue()}))
""")


def test_invariants_fire_under_optimize(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text('{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT, str(graph)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1  # assert statements are compiled out
    assert out["merge"] == "InvariantError"
    # a theorem violation, not the usage error (exit 2) a ValueError gives
    assert out["code"] == 1
    assert out["stderr"].startswith("error: ") and out["stderr"].count("\n") == 1
