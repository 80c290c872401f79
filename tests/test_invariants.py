"""Proof-step bounds raise InvariantError, also under ``python -O``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import coinrig.constructions
import coinrig.linalg
from coinrig import InvariantError
from coinrig.cli import main
from coinrig.constructions import reduce_low_degree
from coinrig.graph import Graph

ROOT = Path(__file__).resolve().parents[1]


def test_reduce_low_degree_without_admissible_pair_raises(monkeypatch):
    # pretend the input is strongly sparse but none of its three reductions is
    g = Graph(5, [(3, 0), (3, 1), (3, 2), (0, 4)])
    calls = []

    def fake(graph, T):
        calls.append(graph)
        return SimpleNamespace(test=lambda edges: len(calls) == 1)

    monkeypatch.setattr(coinrig.constructions, "mt_oracle", fake)
    with pytest.raises(InvariantError, match="admissible"):
        reduce_low_degree(g, {4}, 3)
    assert len(calls) == 4


K4 = '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}'


@pytest.mark.parametrize("verb", ["rank", "check"])
def test_trial_above_the_pebble_bound_is_a_violation(monkeypatch, capsys, tmp_path, verb):
    # K4 minus the edge inside T = {0, 1} has R_2 rank 5; a bound of 4 is
    # one that a sampled trial beats
    real = coinrig.linalg.pebble_rank_23
    monkeypatch.setattr(coinrig.linalg, "pebble_rank_23", lambda g: real(g) - 1)
    graph = tmp_path / "k4.json"
    graph.write_text(K4)
    assert main([verb, "--graph", str(graph), "--T", "0,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invariant violated: ") and err.count("\n") == 1


SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import coinrig.linalg, coinrig.matroid, coinrig.pebble, coinrig.sparsity
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

    real_rank = coinrig.linalg.pebble_rank_23
    coinrig.linalg.pebble_rank_23 = lambda g: real_rank(g) - 1
    rank_err = io.StringIO()
    with contextlib.redirect_stderr(rank_err):
        rank_code = main(["rank", "--graph", sys.argv[1], "--T", "0,1"])
    coinrig.linalg.pebble_rank_23 = real_rank

    # a copied G'/S state holding more than 2n' - 3 edges
    real_contracted = coinrig.pebble.PebbleGame.contracted

    def overfull(game, S):
        sub = real_contracted(game, S)
        sub.accepted += 2 * sub.n
        return sub

    coinrig.pebble.PebbleGame.contracted = overfull
    check_err = io.StringIO()
    with contextlib.redirect_stderr(check_err), contextlib.redirect_stdout(io.StringIO()):
        check_code = main(["check", "--graph", sys.argv[1], "--T", "0,1"])
    print(json.dumps({"optimize": sys.flags.optimize, "merge": merge,
                      "code": code, "stderr": err.getvalue(),
                      "rank_code": rank_code, "rank_stderr": rank_err.getvalue(),
                      "check_code": check_code,
                      "check_stderr": check_err.getvalue()}))
""")


def test_invariants_fire_under_optimize(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(K4)
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
    assert out["rank_code"] == 1
    assert out["rank_stderr"].startswith("error: invariant violated: ")
    assert out["check_code"] == 1
    assert out["check_stderr"].startswith("error: invariant violated: the copied state")
