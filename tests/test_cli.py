import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coinrig.checks
import coinrig.cli
from coinrig.cli import build_parser, main
from coinrig.constructions import henneberg_random
from coinrig.graph import Graph, complete_graph, graph_to_json
from coinrig.matroid import greedy_rank, laman_oracle, mt_oracle


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text('{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],"T":[0,1]}')
    return str(path)


@pytest.fixture
def fig4_file(tmp_path):
    edges = [[4, 3], [4, 0], [4, 1], [5, 3], [5, 0], [5, 1],
             [6, 3], [6, 0], [6, 1], [7, 4], [7, 5], [2, 7], [2, 6]]
    doc = {"n": 8, "edges": edges, "T": [0, 1, 2],
           "labels": {"0": "u", "1": "v", "2": "w", "3": "a", "4": "b",
                      "5": "c", "6": "d", "7": "e"}}
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_err(capsys, *argv):
    """Run a call; return its exit code, its parsed stdout and its stderr."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out.strip() else None), err


def run(capsys, *argv):
    return run_err(capsys, *argv)[:2]


def test_rank_command(capsys, tmp_path, k4_file):
    code, doc = run(capsys, "rank", "--graph", k4_file, "--T", "0,1", "--seed", "3")
    assert code == 0
    assert doc["rank"] == 5 and doc["rigid"] and doc["method"] == "exact-rational"
    # the method label follows the vertex count: exact-rational up to
    # EXACT_VERTEX_LIMIT = 30 vertices, prime-field above; on both paths a
    # trial stops at its cap, which these rigid inputs reach
    for n, method in ((30, "exact-rational"), (31, "prime-field")):
        path = tmp_path / f"h{n}.json"
        path.write_text(graph_to_json(henneberg_random(n, 1)))
        code, doc = run(capsys, "rank", "--graph", str(path), "--T", "0,1")
        assert code == 0 and doc["method"] == method and doc["trials"] == 3
        assert doc["independent"] and doc["rank"] == 2 * n - 3


@pytest.mark.parametrize("argv", [["rank", "--mod-p"], ["rank", "--trials", "5"],
                                  ["check", "--trials", "5"], ["check", "--d", "3"],
                                  ["mrank", "--d", "3"],
                                  ["mrank", "--oracle", "rt", "--d", "3"]])
def test_removed_rank_options_are_rejected(capsys, k4_file, argv):
    # the method follows the vertex count, the trial count is a constant and
    # rank is the one verb that takes a dimension
    assert main([*argv, "--graph", k4_file]) == 2
    assert capsys.readouterr().out == ""


def test_rank_uses_file_T(capsys, k4_file):
    code, doc = run(capsys, "rank", "--graph", k4_file)
    assert code == 0 and doc["rank"] == 5  # T = [0,1] from the file


def test_sparse_command(capsys, k4_file, fig4_file):
    code, doc = run(capsys, "sparse", "--graph", k4_file, "--T", "0,1")
    assert code == 0 and not doc["sparse"]
    # witness sets are reported by label (default labels are the id strings)
    assert doc["violation"]["kind"] == "set" and doc["violation"]["witness"] == ["0", "1"]
    code, doc = run(capsys, "sparse", "--graph", fig4_file, "--strong")
    assert code == 0 and not doc["sparse"]
    # witnesses are reported by label
    assert doc["violation"]["S"] == ["u", "v"]
    assert doc["violation"]["witness"] == [["u", "v", "b"], ["u", "v", "c"],
                                           ["u", "v", "d"]]


def test_mrank_command(capsys, fig4_file):
    code, doc = run(capsys, "mrank", "--graph", fig4_file, "--oracle", "both",
                    "--witness")
    assert code == 0
    assert doc["mt"]["rank"] == doc["rt"]["rank"] == 12
    assert doc["mt"]["dual"]["S"] == ["u", "v"]


def test_gen_and_transform_roundtrip(capsys, tmp_path):
    code, doc = run(capsys, "gen", "--henneberg", "6", "--seed", "1")
    assert code == 0 and doc["n"] == 6 and len(doc["edges"]) == 9
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc))
    code, doc2 = run(capsys, "transform", "--op", "0ext", "--graph", str(gpath),
                     "--args", "0,1")
    assert code == 0 and doc2["n"] == 7 and len(doc2["edges"]) == 11
    code, doc3 = run(capsys, "transform", "--op", "1ext", "--graph", str(gpath),
                     "--args", f'{doc["edges"][0][0]},{doc["edges"][0][1]},5')
    assert code == 0 and doc3["n"] == 7


def test_transform_split(capsys, tmp_path):
    gpath = tmp_path / "star.json"
    gpath.write_text('{"n":5,"edges":[[0,1],[0,2],[0,3],[0,4]]}')
    code, doc = run(capsys, "transform", "--op", "split", "--graph", str(gpath),
                    "--args", "0:1:2,3:4")
    assert code == 0 and doc["n"] == 6 and len(doc["edges"]) == 6


def test_check_command(capsys, fig4_file, k4_file):
    code, doc = run(capsys, "check", "--graph", fig4_file)
    assert code == 0  # both verdicts false: consistent
    assert doc["combinatorial"] is False and doc["algebraic"] is False
    assert doc["failing_S"] == [0, 1]
    code, doc = run(capsys, "check", "--graph", k4_file)
    assert code == 0 and doc["combinatorial"] and doc["algebraic"]


def test_xval_command(capsys):
    code, doc = run(capsys, "xval", "--n-max", "6", "--samples", "10", "--seed", "2")
    assert code == 0 and doc["mismatches"] == 0


def _laman_as_rt(g, T, seed=0):
    """A fake rt oracle: it accepts the T-internal edges that mt rejects."""
    return laman_oracle(g)


def test_check_exits_1_when_the_sides_disagree(capsys, monkeypatch, k4_file):
    code, doc, err = run_err(capsys, "check", "--graph", k4_file)
    assert code == 0 and err == ""  # consistent: nothing on stderr
    # check's combinatorial side reads the shared G' game through _failing_S
    monkeypatch.setattr(coinrig.checks, "_failing_S", lambda ts, game: frozenset())
    code, doc, err = run_err(capsys, "check", "--graph", k4_file)
    assert code == 1  # a theorem violation, with the JSON still printed
    assert doc["combinatorial"] is False and doc["algebraic"] is True
    assert doc["failing_S"] == []
    assert err == ("error: theorem violated: combinatorial verdict False, "
                   "algebraic verdict True\n")


def test_mrank_both_exits_1_when_the_ranks_differ(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(coinrig.cli, "rt_oracle", _laman_as_rt)
    path = tmp_path / "k3.json"
    path.write_text('{"n":3,"edges":[[0,1],[0,2],[1,2]],"T":[0,1]}')
    code, doc, err = run_err(capsys, "mrank", "--oracle", "both", "--graph", str(path))
    assert code == 1
    assert doc["mt"]["rank"] == 2 and doc["rt"]["rank"] == 3
    assert err == "error: theorem violated: mt rank 2, rt rank 3\n"
    # one side alone compares nothing
    code, doc, err = run_err(capsys, "mrank", "--oracle", "rt", "--graph", str(path))
    assert code == 0 and doc["rt"]["rank"] == 3 and err == ""


def test_mrank_exits_1_when_greedy_and_cover_differ(capsys, monkeypatch, tmp_path,
                                                    k4_file):
    bounds = []
    monkeypatch.setattr(coinrig.cli, "mt_rank_cover_min",
                        lambda g, T, lower: bounds.append(lower) or (4, None))
    code, doc, err = run_err(capsys, "mrank", "--witness", "--graph", k4_file)
    assert code == 1 and doc["cover_min"] == 4 and doc["mt"]["rank"] == 5
    assert bounds == [5]  # the greedy rank bounds the cover search
    assert err == "error: theorem violated: greedy mt rank 5, cover minimum 4\n"
    # both disagreements at once share the one line
    monkeypatch.setattr(coinrig.cli, "mt_rank_cover_min",
                        lambda g, T, lower: (1, None))
    monkeypatch.setattr(coinrig.cli, "rt_oracle", _laman_as_rt)
    path = tmp_path / "k3.json"
    path.write_text('{"n":3,"edges":[[0,1],[0,2],[1,2]],"T":[0,1]}')
    code, doc, err = run_err(capsys, "mrank", "--oracle", "both", "--witness",
                             "--graph", str(path))
    assert code == 1
    assert err == ("error: theorem violated: greedy mt rank 2, cover minimum 1; "
                   "mt rank 2, rt rank 3\n")


def test_xval_exits_1_only_on_a_proven_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(coinrig.checks, "rt_oracle", _laman_as_rt)
    code, doc, err = run_err(capsys, "xval", "--n-max", "6", "--t-sizes", "2",
                             "--samples", "20", "--seed", "1")
    assert code == 1 and doc["mismatches"] == len(doc["mismatch_details"]) > 0
    m = doc["mismatch_details"][0]
    assert m["mt_rank"] < m["rt_rank"] and not m["conjectural"]
    assert err == (f"error: theorem violated: mt and rt ranks differ on "
                   f"{doc['mismatches']} instances with |T| <= 3\n")
    # for |T| >= 4 every mismatch is conjectural, and the call exits 0
    code, doc, err = run_err(capsys, "xval", "--n-max", "7", "--t-sizes", "4",
                             "--samples", "20", "--seed", "1")
    assert code == 0 and doc["mismatches"] > 0 and err == ""
    assert all(m["conjectural"] for m in doc["mismatch_details"])


def test_conjecture_command(capsys, monkeypatch):
    code, doc, err = run_err(capsys, "conjecture", "--n-max", "5", "--t-size", "4",
                             "--budget", "5", "--seed", "3")
    assert code == 0 and doc["candidates"] == [] and err == ""
    # a re-verified candidate exits 1 and says so in one stderr line
    monkeypatch.setattr(coinrig.cli, "conjecture_search",
                        lambda n_max, t_size, budget, seed: {
                            "t_size": t_size, "budget": budget,
                            "candidates": [{"T": [0, 1, 2, 3]}] * 2})
    code, doc, err = run_err(capsys, "conjecture", "--budget", "5")
    assert code == 1 and len(doc["candidates"]) == 2
    assert err == "error: conjecture violated: 2 re-verified candidates\n"


def test_fixtures_command(capsys):
    code, doc = run(capsys, "fixtures")
    assert code == 0
    assert doc["fig4"]["T"] == [0, 1, 2]
    assert len(doc["fig3-1"]["edges"]) == 15
    assert doc["fig3-1"]["realization"]["coords"]["8"] == ["2/1", "2/1"]


def test_closed_stdout_ends_the_call_quietly():
    # a reader that closed the pipe before any output (``| head``, ``| true``)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "coinrig.cli", "fixtures"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 0 and proc.stderr == b""


def test_out_flag_writes_file(capsys, tmp_path, k4_file):
    out = tmp_path / "report.json"
    code, doc = run(capsys, "rank", "--graph", k4_file, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["rank"] == doc["rank"]


@pytest.mark.parametrize("argv", [
    ["rank", "--graph", "{k4}"],
    ["sparse", "--graph", "{fig4}", "--strong"],
    ["mrank", "--graph", "{fig4}", "--oracle", "both", "--witness"],
    ["gen", "--henneberg", "6"],
    ["transform", "--graph", "{fig4}", "--op", "0ext", "--args", "0,1"],
    ["check", "--graph", "{fig4}"],
    ["xval", "--n-max", "5", "--samples", "2"],
    ["conjecture", "--n-max", "5", "--budget", "1"],
    ["fixtures"],
], ids=lambda argv: argv[0])
def test_each_verb_prints_one_compact_json_line(capsys, tmp_path, k4_file, fig4_file,
                                                argv):
    # the report is json.dumps's one line with its default separators, so
    # a grep for '"sparse": true' matches; --out writes the same text
    argv = [{"{k4}": k4_file, "{fig4}": fig4_file}.get(a, a) for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and out == json.dumps(json.loads(out)) + "\n"
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == out and path.read_text() == out


def test_usage_errors(capsys, k4_file, tmp_path):
    code = main(["sparse", "--graph", k4_file, "--T", ""])
    assert code == 2  # empty T
    # a violation over the enumeration cap has no witness
    k4_13 = tmp_path / "k4_13.json"
    k4_13.write_text(graph_to_json(Graph(13, complete_graph(4).edges), [0]))
    capsys.readouterr()
    assert (error_line(capsys, "sparse", "--graph", str(k4_13))
            == "error: graph has 13 vertices, enumeration cap is 12\n")
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"edges":[[0,0]]}')
    code = main(["rank", "--graph", str(bad)])
    assert code == 2
    code = main(["rank", "--graph", str(tmp_path / "missing.json")])
    assert code == 2
    code = main(["nonsense"])
    assert code == 2


def test_parser_is_built_once_and_reused(capsys, k4_file, fig4_file):
    # calls in one process share one parser; each must print and return
    # exactly what it does on a freshly built parser
    calls = [["mrank", "--graph", fig4_file, "--oracle", "both", "--witness"],
             ["sparse", "--graph", k4_file, "--T", "0,1"],
             ["nonsense"],
             ["mrank", "--graph", fig4_file],
             ["rank", "--graph", k4_file, "--seed", "3"],
             ["sparse", "--graph", fig4_file],
             ["sparse", "--strong", "--graph", fig4_file, "--T", "0,1,2"],
             ["mrank", "--graph", k4_file, "--T", "0,1", "--witness"],
             ["check"],
             ["sparse", "--help"],
             ["rank", "--graph", k4_file, "--mod-p"],
             ["rank", "--graph", k4_file, "--seed", "3"]]

    def outcome(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert shared[-1] == shared[4]  # a rejected flag leaves the parser as it was


def error_line(capsys, *argv):
    """Run a call that must fail as a usage error; return its one stderr line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("doc", [
    '{"n":3,"edges":[[0,1]],"T":5}',
    '{"n":3,"edges":[[0,1]],"T":[[0]]}',
    '{"n":3,"edges":[[0,1]],"T":[true,0]}',
    '{"n":3,"edges":5}',
    '{"n":3,"edges":[[true,2]]}',
    '{"n":true,"edges":[]}',
    '{"n":3,"edges":[[0,1]],"labels":["a","b","c"]}',
])
def test_malformed_graph_json_is_a_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    error_line(capsys, "rank", "--graph", str(path))


@pytest.mark.parametrize("text, message", [
    ('{"n": 3, "edges": [[0, 1]', "invalid JSON: "),
    ('{"edges": []}', 'graph JSON needs "n" and "edges"'),
    ('{"n": 2, "edges": [], "labels": {"x": "a"}}', "label key 'x' is not a vertex id"),
    ('{"n": 2, "edges": [], "labels": {"2": "a"}}', "label key '2' outside 0..1"),
    # a label key is a vertex id as graph_to_json writes it, and no other
    # spelling of one
    ('{"n": 12, "edges": [[0, 1]], "labels": {"1": "a", "01": "b", "1_0": "x"}}',
     "label key '01' is not a vertex id"),
    ('{"n": 12, "edges": [], "labels": {"1_0": "x"}}', "label key '1_0' is not a vertex id"),
    ('{"n": 2, "edges": [], "labels": {" 1": "a"}}', "label key ' 1' is not a vertex id"),
    ('{"n": 2, "edges": [], "labels": {"+1": "a"}}', "label key '+1' is not a vertex id"),
    (" \n\n", "empty edge-list document"),
    ("3\n", 'first line must be "n m", got \'3\''),
    ("3 x\n", 'first line must be "n m", got \'3 x\''),
    ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),
    ("3 1\n0 a\n", "malformed edge line '0 a'"),
    ("3 1\n1 1\n", "loop edge line '1 1' is not allowed"),
    ("3 1\n0 3\n", "edge line '0 3' has an endpoint outside 0..2"),
    ("3 2\n0 1\n1 0\n", "duplicate edge in edge-list document"),
    # json.loads gives up on nesting this deep with a RecursionError
    ('{"n": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON: "),
], ids=["json-invalid", "json-no-n", "json-label-key", "json-label-range",
        "json-label-zero-pad", "json-label-underscore", "json-label-space",
        "json-label-plus",
        "list-empty", "list-head-short", "list-head-int", "list-edge-short",
        "list-edge-int", "list-loop", "list-range", "list-duplicate", "json-deep"])
def test_each_graph_parse_error_is_a_usage_error(capsys, tmp_path, text, message):
    # one file per parse error, each named in its one error line by every
    # verb that reads a graph and T
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for verb in T_VERBS:
        err = error_line(capsys, verb, "--graph", str(path), "--T", "0,1")
        assert err.startswith("error: " + message), (verb, err)


@pytest.mark.parametrize("text, message", [
    ("[" * 200_000, 'first line must be "n m", got ' + repr("[" * 80 + "...")),
    ("2 1\n" + "0 " * 100_000, "malformed edge line " + repr("0 " * 40 + "...")),
    # a line of 80 characters is quoted whole
    ("3 x" + " " * 76 + "y", 'first line must be "n m", got ' + repr("3 x" + " " * 76 + "y")),
], ids=["head", "edge-line", "at-limit"])
def test_parse_errors_cut_a_long_line(capsys, tmp_path, text, message):
    path = tmp_path / "long.txt"
    path.write_text(text)
    err = error_line(capsys, "check", "--graph", str(path), "--T", "0,1")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["rank", "--d", "0"],
    ["rank", "--d", "-1"],
])
def test_dimension_below_one_is_a_usage_error(capsys, k4_file, argv):
    err = error_line(capsys, *argv, "--graph", k4_file)
    assert err == "error: dimension must be at least 1\n"


T_VERBS = ("rank", "sparse", "mrank", "check")
# the verbs that read no --graph, with small arguments
NO_GRAPH_CALLS = {"xval": ["--n-max", "5", "--samples", "2"],
                  "conjecture": ["--n-max", "5", "--budget", "1"],
                  "gen": ["--henneberg", "4"],
                  "fixtures": []}
USAGE_ERRORS = [
    *(pytest.param([verb, "--graph", "{graph}", "--T", "0,4"],
                   "T contains invalid vertex 4", id=f"{verb}-T-above-n")
      for verb in T_VERBS),
    *(pytest.param([verb, "--graph", "{graph}", "--T", ""],
                   "T must be nonempty", id=f"{verb}-T-empty")
      for verb in T_VERBS),
    *(pytest.param([verb, "--graph", "{graph}", "--out", "{out}"],
                   "cannot write {out}: ", id=f"{verb}-out")
      for verb in T_VERBS),
    pytest.param(["transform", "--graph", "{graph}", "--op", "0ext", "--args", "0,1",
                  "--out", "{out}"], "cannot write {out}: ", id="transform-out"),
    *(pytest.param([verb, *args, "--out", "{out}"], "cannot write {out}: ",
                   id=f"{verb}-out")
      for verb, args in NO_GRAPH_CALLS.items()),
    pytest.param(["rank", "--graph", "{graph}", "--T", "a,b"],
                 "--T must be a comma-separated id list", id="rank-T-not-ids"),
    pytest.param(["transform", "--graph", "{graph}", "--op", "split", "--args", "1:2"],
                 'split needs --args "z:U1:U2:U3"', id="transform-split-args"),
    pytest.param(["transform", "--graph", "{graph}", "--op", "1ext", "--args", "0,1"],
                 "bad --args for 1ext", id="transform-1ext-args"),
]


@pytest.mark.parametrize("argv, want", USAGE_ERRORS)
def test_usage_error_sweep(capsys, tmp_path, k4_file, argv, want):
    # each verb reports a bad --T, bad --args or an unwritable --out as one
    # error line, exit code 2 and nothing on stdout
    out = tmp_path / "missing" / "report.json"
    subst = {"{graph}": k4_file, "{out}": str(out)}
    err = error_line(capsys, *(subst.get(a, a) for a in argv))
    assert err.startswith("error: " + want.format(out=out))
    assert not out.parent.exists()


def test_rank_on_the_empty_graph_names_it(capsys, tmp_path):
    # with no T given, rank defaults T to {0}, which an empty graph lacks
    path = tmp_path / "empty.json"
    path.write_text('{"n":0,"edges":[]}')
    err = error_line(capsys, "rank", "--graph", str(path))
    assert err == "error: the graph is empty: no vertex to default T to\n"
    err = error_line(capsys, "rank", "--graph", str(path), "--T", "0")
    assert err == "error: T contains invalid vertex 0\n"


def _seeded_graph(n):
    rng = random.Random(f"witness:{n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(pairs, 2 * n - 3 + rng.randint(-1, 2))), rng.sample(range(n), 3)


@pytest.mark.parametrize("n", [11, 12])
def test_mrank_witness_up_to_the_enumeration_cap(capsys, tmp_path, n):
    g, T = _seeded_graph(n)
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g, T))
    code, doc = run(capsys, "mrank", "--witness", "--graph", str(path))
    assert code == 0
    mt = doc["mt"]
    assert mt["rank"] == greedy_rank(mt_oracle(g, T)).rank
    dual = mt["dual"]  # attached only when the cover value equals the rank
    S = {int(v) for v in dual["S"]}
    value = sum(2 * len(X) - 3 for X in dual["xsets"])
    if dual["family"]:
        value += sum(2 * (len(H) - len(S)) - 1 for H in dual["family"]) + 2 * (len(S) - 1)
    assert value == mt["rank"]


def test_one_enumeration_cap_for_every_verb(capsys, tmp_path):
    path = tmp_path / "g13.json"
    path.write_text(graph_to_json(Graph(13, [(1, 2), (2, 3)]), [0, 1]))
    graph = ["--graph", str(path)]
    violating = tmp_path / "k4_13.json"
    violating.write_text(graph_to_json(Graph(13, complete_graph(4).edges), [0, 1]))
    msg = "error: graph has 13 vertices, enumeration cap is 12\n"
    for argv in (["sparse", "--graph", str(violating)],
                 ["sparse", "--strong", "--graph", str(violating)],
                 ["mrank", "--witness", *graph],
                 ["mrank", "--oracle", "both", "--witness", *graph]):
        assert error_line(capsys, *argv) == msg, argv
    # verdicts play a pebble game per subset of T: graphs of any size run,
    # and only a violation, whose witness needs a walk over the vertex
    # sets, or a T over the cap is refused
    for strong in ([], ["--strong"]):
        code, doc = run(capsys, "sparse", *strong, *graph)
        assert code == 0 and doc["sparse"] and doc["violation"] is None
    h40 = tmp_path / "h40.json"
    h40.write_text(graph_to_json(henneberg_random(40, 1)))
    code, doc = run(capsys, "sparse", "--strong", "--graph", str(h40), "--T", "0")
    assert code == 0 and doc["sparse"] and doc["violation"] is None
    code, doc = run(capsys, "mrank", *graph)
    assert code == 0 and doc["mt"]["rank"] == 2
    code, doc = run(capsys, "xval", "--n-max", "13", "--samples", "6")
    assert code == 0 and doc["mismatches"] == 0
    code, doc = run(capsys, "conjecture", "--n-max", "14", "--budget", "10")
    assert code == 0 and doc["candidates"] == []
    msg = "error: T has 13 vertices, enumeration cap is 12\n"
    all13 = ",".join(map(str, range(13)))
    for argv in (["mrank", *graph, "--T", all13],
                 ["sparse", "--strong", *graph, "--T", all13],
                 ["xval", "--n-max", "14", "--t-sizes", "13", "--samples", "2"],
                 ["conjecture", "--n-max", "14", "--t-size", "13", "--budget", "2"]):
        assert error_line(capsys, *argv) == msg, argv


@pytest.mark.parametrize("argv, msg", [
    (["xval", "--t-sizes", "-1", "--samples", "2"],
     "--t-sizes must list integers >= 1, got '-1'"),
    (["xval", "--t-sizes", "1,,2"], "--t-sizes must list integers >= 1, got '1,,2'"),
    (["xval", "--t-sizes", "0"], "--t-sizes must list integers >= 1, got '0'"),
    (["xval", "--samples", "-3"], "--samples must be at least 0, got -3"),
    (["conjecture", "--budget", "-3"], "--budget must be at least 0, got -3"),
    (["xval", "--n-max", "-5"], "n_max must be at least 4 for |T| = 1, got -5"),
    (["xval", "--n-max", "4", "--t-sizes", "2,4"],
     "n_max must be at least 5 for |T| = 4, got 4"),
    (["conjecture", "--n-max", "4"], "n_max must be at least 5 for |T| = 4, got 4"),
    # n_max is checked against every listed |T| before the first draw
    (["xval", "--n-max", "-5", "--samples", "0"],
     "n_max must be at least 4 for |T| = 1, got -5"),
    (["conjecture", "--n-max", "1", "--budget", "0"],
     "n_max must be at least 5 for |T| = 4, got 1"),
    (["xval", "--n-max", "4", "--t-sizes", "1,4", "--samples", "1"],
     "n_max must be at least 5 for |T| = 4, got 4"),
], ids=["xval-t-negative", "xval-t-empty-entry", "xval-t-zero", "xval-samples",
        "conjecture-budget", "xval-n-max-negative", "xval-n-max-below-T",
        "conjecture-n-max-below-T", "xval-n-max-no-draw", "conjecture-n-max-no-draw",
        "xval-n-max-undrawn-T"])
def test_bad_counts_are_usage_errors(capsys, argv, msg):
    assert error_line(capsys, *argv) == f"error: {msg}\n"


@pytest.mark.filterwarnings("error")  # pytest would otherwise hide a warning
def test_mrank_witness_beyond_the_theorem_keeps_stderr_clean(capsys, tmp_path):
    # with |T| >= 4 the cover minimum is conjectural: the JSON says so, and
    # a successful call prints nothing on stderr, not even a warning
    path = tmp_path / "t4.json"
    path.write_text('{"n":6,"edges":[[0,4],[1,4],[2,5],[3,5],[4,5]],"T":[0,1,2,3]}')
    code = main(["mrank", "--witness", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["mt"]["conjectural"] and doc["mt"]["dual"] is not None


def test_mrank_rt_witness_is_a_usage_error(capsys, k4_file):
    # the dual cover certifies only the mt rank; rt must not drop the flag
    err = error_line(capsys, "mrank", "--oracle", "rt", "--witness", "--graph", k4_file)
    assert err == "error: --witness needs --oracle mt or both: the cover certifies mt\n"
    code, doc = run(capsys, "mrank", "--oracle", "both", "--witness", "--graph", k4_file)
    assert code == 0 and doc["mt"]["dual"] is not None
