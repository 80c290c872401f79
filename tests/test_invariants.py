"""Proof-step bounds raise InvariantError, also under ``python -O``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import coinrig.checks
import coinrig.constructions
import coinrig.linalg
from coinrig import InvariantError
from coinrig.checks import fixtures
from coinrig.cli import main
from coinrig.constructions import henneberg_random, reduce_low_degree
from coinrig.graph import Graph, graph_to_json
from coinrig.linalg import pebble_basis_23 as linalg_basis_23

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
# 40 vertices, above EXACT_VERTEX_LIMIT: the prime-field path
H40 = graph_to_json(henneberg_random(40, 1))
# every T-coincident trial of fig4 falls short of its cap 13 and is
# confirmed by the exact rank
FIG4 = graph_to_json(fixtures()["fig4"].graph, fixtures()["fig4"].T)


def _drop_a_basis_edge(basis_23):
    """A cap game that loses its first accepted edge, listed nowhere."""
    def forged(g):
        basis, reached, game = basis_23(g)
        return basis[1:], reached, game
    return forged


def _reject_a_basis_edge(basis_23):
    """A cap game that reports its first accepted edge as rejected, with
    every vertex as the set it reached."""
    def forged(g):
        basis, reached, game = basis_23(g)
        return basis[1:], {**reached, basis[0]: tuple(range(g.n))}, game
    return forged


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
    # on 4 and on 40 vertices alike the basis rows reach the forged cap and
    # no other row is fed, so only the recount of the rejection can catch it;
    # rank plays the game in linalg, check in checks for both of its sides
    graph = tmp_path / "graph.json"
    for text in (K4, H40):
        graph.write_text(text)
        for forge in (_reject_a_basis_edge, _drop_a_basis_edge):
            for module in (coinrig.linalg, coinrig.checks):
                monkeypatch.setattr(module, "pebble_basis_23", forge(linalg_basis_23))
            assert main([verb, "--graph", str(graph), "--T", "0,1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invariant violated: rejected edge ")
            assert err.count("\n") == 1


SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import coinrig.checks, coinrig.linalg, coinrig.matroid, coinrig.pebble
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

    # a cap game that drops an accepted edge and one that reports it as
    # rejected, on 4 and on 40 vertices: the recount catches each, in rank's
    # game (linalg) and in the one game check plays for both sides (checks)
    real_basis = coinrig.linalg.pebble_basis_23

    def dropped(g):
        basis, reached, game = real_basis(g)
        return basis[1:], reached, game

    def rejected(g):
        basis, reached, game = real_basis(g)
        return basis[1:], {**reached, basis[0]: tuple(range(g.n))}, game

    recount_err = io.StringIO()
    recount_codes = []
    with contextlib.redirect_stderr(recount_err), contextlib.redirect_stdout(io.StringIO()):
        for forged in (dropped, rejected):
            coinrig.linalg.pebble_basis_23 = coinrig.checks.pebble_basis_23 = forged
            for path in sys.argv[1:3]:
                recount_codes += [main([verb, "--graph", path, "--T", "0,1,2"])
                                  for verb in ("rank", "check")]
    coinrig.linalg.pebble_basis_23 = coinrig.checks.pebble_basis_23 = real_basis

    # an exact kernel that puts fig4's confirmed rank above its cap
    real_exact = coinrig.linalg._exact_rank
    coinrig.linalg._exact_rank = lambda rows: real_exact(rows) + 2
    rank_err = io.StringIO()
    with contextlib.redirect_stderr(rank_err):
        rank_code = main(["rank", "--graph", sys.argv[3]])
    coinrig.linalg._exact_rank = real_exact

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
    print(json.dumps({"optimize": sys.flags.optimize, "cover_value": cover_value,
                      "code": code, "stderr": err.getvalue(),
                      "rank_code": rank_code, "rank_stderr": rank_err.getvalue(),
                      "recount_codes": recount_codes,
                      "recount_stderr": recount_err.getvalue(),
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
    assert out["recount_codes"] == [1] * 8
    lines = out["recount_stderr"].splitlines()
    assert len(lines) == 8
    assert all(ln.startswith("error: invariant violated: rejected edge ") for ln in lines)
    assert out["check_code"] == 1
    assert out["check_stderr"].startswith("error: invariant violated: the copied state")
