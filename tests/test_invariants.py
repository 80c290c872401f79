"""Proof-step bounds raise InvariantError, also under ``python -O``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import coinrig.constructions
import coinrig.linalg
from coinrig import InvariantError
from coinrig.checks import fixtures
from coinrig.cli import main
from coinrig.constructions import henneberg_random, reduce_low_degree
from coinrig.graph import Graph, graph_to_json
from coinrig.pebble import PebbleGame

ROOT = Path(__file__).resolve().parents[1]


def test_reduce_low_degree_without_admissible_pair_raises(monkeypatch):
    # pretend the input is strongly sparse but none of its three reductions is
    g = Graph(5, [(3, 0), (3, 1), (3, 2), (0, 4)])
    calls = []

    def fake(graph, T):
        calls.append(graph)
        return None if len(calls) == 1 else frozenset(T)

    monkeypatch.setattr(coinrig.constructions, "_broken_S", fake)
    with pytest.raises(InvariantError, match="admissible"):
        reduce_low_degree(g, {4}, 3)
    assert len(calls) == 4


K4 = '{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}'
# 40 vertices, above EXACT_VERTEX_LIMIT: the prime-field path
H40 = graph_to_json(henneberg_random(40, 1))
# every T-coincident trial of fig4 falls short of its cap 13 and is
# confirmed by the exact rank
FIG4 = graph_to_json(fixtures()["fig4"].graph, fixtures()["fig4"].T)


def _refuse_the_first_insert(monkeypatch):
    """A (2,3) game that rejects the first edge it is offered, which the
    real game, still empty, accepts."""
    real = PebbleGame.try_insert
    offered = []

    def forged(game, a, b):
        offered.append((a, b))
        return len(offered) > 1 and real(game, a, b)

    monkeypatch.setattr(PebbleGame, "try_insert", forged)


@pytest.mark.parametrize("verb", ["rank", "check"])
def test_trial_above_the_pebble_bound_is_a_violation(monkeypatch, capsys, tmp_path, verb):
    # a fig4 trial falls short of its proved cap, so its rank is confirmed
    # exactly; an exact kernel that counts two rows too many puts the
    # confirmed rank above the cap
    real = coinrig.linalg._exact_rank
    monkeypatch.setattr(coinrig.linalg, "_exact_rank", lambda rows: real(rows) + 2)
    graph = tmp_path / "fig4.json"
    graph.write_text(FIG4)
    assert main([verb, "--graph", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err == "error: invariant violated: trial 0 has rank 14, above its bound 13\n"


@pytest.mark.parametrize("verb", ["rank", "check"])
def test_forged_rejection_fails_its_recount(monkeypatch, capsys, tmp_path, verb):
    # on 4 and on 40 vertices alike the basis rows would reach the forged
    # cap and no other row would be fed, so only the recount of the
    # rejection, made as the game makes it, can catch it; rank and check
    # both play the game through pebble_basis_23
    graph = tmp_path / "graph.json"
    for text in (K4, H40):
        graph.write_text(text)
        _refuse_the_first_insert(monkeypatch)
        assert main([verb, "--graph", str(graph), "--T", "0,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invariant violated: rejected edge ")
        assert err.count("\n") == 1


SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import coinrig.linalg, coinrig.matroid, coinrig.pebble
    import coinrig.sparsity
    from coinrig import InvariantError
    from coinrig.cli import main
    from coinrig.graph import complete_graph
    from coinrig.matroid import mt_rank_cover_min

    # a cover minimum whose family's value disagrees with the minimum
    real_val = coinrig.matroid.val_augmented
    coinrig.matroid.val_augmented = lambda aug: -1
    try:
        mt_rank_cover_min(complete_graph(4), {0, 1})
        cover_value = "returned"
    except InvariantError:
        cover_value = "InvariantError"
    coinrig.matroid.val_augmented = real_val

    coinrig.matroid.min_thin_cover = lambda *a, **k: None
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["mrank", "--graph", sys.argv[1], "--T", "0,1", "--witness"])

    # a cap game that rejects the first edge it is offered, on 4 and on 40
    # vertices: its recount catches it, in rank and in check
    real_insert = coinrig.pebble.PebbleGame.try_insert

    def refuse_first(offered):
        def forged(game, a, b):
            offered.append((a, b))
            return len(offered) > 1 and real_insert(game, a, b)
        return forged

    recount_err = io.StringIO()
    recount_codes = []
    with contextlib.redirect_stderr(recount_err), contextlib.redirect_stdout(io.StringIO()):
        for path in sys.argv[1:3]:
            for verb in ("rank", "check"):
                coinrig.pebble.PebbleGame.try_insert = refuse_first([])
                recount_codes.append(main([verb, "--graph", path, "--T", "0,1"]))
    coinrig.pebble.PebbleGame.try_insert = real_insert

    # an exact kernel that puts fig4's confirmed rank above its cap
    real_exact = coinrig.linalg._exact_rank
    coinrig.linalg._exact_rank = lambda rows: real_exact(rows) + 2
    rank_err = io.StringIO()
    with contextlib.redirect_stderr(rank_err):
        rank_code = main(["rank", "--graph", sys.argv[3]])
    coinrig.linalg._exact_rank = real_exact

    # reach sets cut down to the rejected edge's ends: the sparse decisions
    # play the same game as check, so their recount catches it too
    real_reach = coinrig.pebble._reach
    coinrig.pebble._reach = lambda out, a, b: {a, b}
    sparse_err = io.StringIO()
    with contextlib.redirect_stderr(sparse_err), contextlib.redirect_stdout(io.StringIO()):
        sparse_code = main(["sparse", "--strong", "--graph", sys.argv[1], "--T", "0,1"])
    coinrig.pebble._reach = real_reach

    # a copied G'/S state holding more than 2n' - 3 edges
    real_contracted = coinrig.pebble.PebbleGame.contracted

    def overfull(game, S, bound):
        sub = real_contracted(game, S, bound)
        sub.accepted += 2 * sub.n
        return sub

    coinrig.pebble.PebbleGame.contracted = overfull
    check_err = io.StringIO()
    with contextlib.redirect_stderr(check_err), contextlib.redirect_stdout(io.StringIO()):
        check_code = main(["check", "--graph", sys.argv[1], "--T", "0,1"])
    print(json.dumps({"optimize": sys.flags.optimize, "cover_value": cover_value,
                      "code": code, "stderr": err.getvalue(),
                      "rank_code": rank_code, "rank_stderr": rank_err.getvalue(),
                      "recount_codes": recount_codes,
                      "recount_stderr": recount_err.getvalue(),
                      "sparse_code": sparse_code,
                      "sparse_stderr": sparse_err.getvalue(),
                      "check_code": check_code,
                      "check_stderr": check_err.getvalue()}))
""")


def test_invariants_fire_under_optimize(tmp_path):
    graph = tmp_path / "k4.json"
    graph.write_text(K4)
    large = tmp_path / "h40.json"
    large.write_text(H40)
    fig4 = tmp_path / "fig4.json"
    fig4.write_text(FIG4)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT, str(graph), str(large),
                           str(fig4)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1  # assert statements are compiled out
    assert out["cover_value"] == "InvariantError"
    # a theorem violation, not the usage error (exit 2) a ValueError gives
    assert out["code"] == 1
    assert out["stderr"].startswith("error: ") and out["stderr"].count("\n") == 1
    assert out["rank_code"] == 1
    assert out["rank_stderr"] == ("error: invariant violated: trial 0 has rank 14, "
                                  "above its bound 13\n")
    assert out["recount_codes"] == [1] * 4
    lines = out["recount_stderr"].splitlines()
    assert len(lines) == 4
    assert all(ln.startswith("error: invariant violated: rejected edge ") for ln in lines)
    assert out["sparse_code"] == 1
    assert out["sparse_stderr"].startswith("error: invariant violated: rejected edge ")
    assert out["sparse_stderr"].count("\n") == 1
    assert out["check_code"] == 1
    assert out["check_stderr"].startswith("error: invariant violated: the copied state")
