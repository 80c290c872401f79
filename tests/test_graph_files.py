"""Property tests of graph files: serialization round-trips, and a mutated
file is a usage error (exit code 2, one ``error:`` line, nothing on
stdout) or a clean answer, never a traceback.  The explicit malformed
files are in ``test_cli.py``.
"""

import contextlib
import io
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from coinrig.cli import main
from coinrig.graph import Graph, GraphParseError, graph_to_json, parse_graph_with_T

VERBS = ("sparse", "mrank", "check", "rank")


def run_cli(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()



FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_n=6, labeled=True):
    n = draw(st.integers(2, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    labels = None
    if labeled and draw(st.booleans()):
        labels = tuple(draw(st.lists(st.text(max_size=4), min_size=n, max_size=n)))
    T = draw(st.none() | st.sets(st.integers(0, n - 1), min_size=1))
    return Graph(n, edges, labels), T


def edge_list_text(g):
    return "".join([f"{g.n} {len(g.edges)}\n"] + [f"{a} {b}\n" for a, b in g.edge_list()])


@FUZZ
@given(graphs(max_n=9))
def test_json_round_trips_graphs_with_labels_and_T(case):
    g, T = case
    assert parse_graph_with_T(graph_to_json(g, T)) == (g, None if T is None else frozenset(T))


# characters that keep a mutated document close to the grammar
ALPHABET = '0123456789 -.,:[]{}"\nnedgsTlabtrux'


@st.composite
def mutated(draw, text):
    """text with one to four characters inserted, deleted or replaced near
    one spot, so that a token can change type ("2" -> "2.0", "[2]").  The
    edits are drawn from a seeded ``random.Random``, so the spot is uniform:
    hypothesis's own small integers favour the start of the text."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    chars = list(text)
    spot = rnd.randint(0, len(chars))
    for _ in range(rnd.randint(1, 4)):
        i = min(spot + rnd.randint(0, 2), len(chars))
        op = rnd.choice(("insert", "delete", "replace"))
        if op == "insert" or i == len(chars):
            chars.insert(i, rnd.choice(ALPHABET))
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = rnd.choice(ALPHABET)
    return "".join(chars)


@FUZZ
@given(st.data())
def test_mutated_graph_files_exit_0_or_2(tmp_path_factory, data):
    # a JSON document carries its own T; an edge list is given one.  No
    # labels, so that most mutations land on the numbers and brackets
    g, T = data.draw(graphs(labeled=False))
    text, extra = data.draw(st.sampled_from(((graph_to_json(g, T), ()),
                                             (edge_list_text(g), ("--T", "0,1")))))
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    path.write_text(data.draw(mutated(text)))
    for verb in VERBS:
        code, out, err = run_cli([verb, "--graph", str(path), *extra])
        assert code in (0, 2), (verb, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, \
                (verb, err)
        else:
            assert err == "", (verb, err)


@pytest.mark.parametrize("text", ["-1 0\n", "3 -1\n", "-2 -1\n"])
def test_negative_edge_list_counts_are_parse_errors(tmp_path, text):
    # the header is refused as a JSON "n" of -1 is: not by Graph's own
    # ValueError, nor as "expected -1 edge lines"
    want = f'first line "n m" must hold nonnegative counts, got {text.strip()!r}'
    with pytest.raises(GraphParseError) as info:
        parse_graph_with_T(text)
    assert str(info.value) == want
    path = tmp_path / "g.txt"
    path.write_text(text)
    for verb in VERBS:
        assert run_cli([verb, "--graph", str(path), "--T", "0,1"]) == (2, "", f"error: {want}\n")
