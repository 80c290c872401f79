import random
import tracemalloc

import pytest

from coinrig.checks import (check_coincident_rigidity,
                            coincident_rigid_combinatorial)
from coinrig.constructions import reduce_low_degree
from coinrig.graph import (Graph, GraphParseError, complete_graph,
                           graph_to_json, parse_graph_with_T)
from coinrig.linalg import generic_rank, sample_T_coincident
from coinrig.matroid import mt_oracle, mt_rank_cover_min, rt_oracle
from coinrig.sparsity import is_S_sparse, is_strongly_T_sparse


def fig4():
    # counterexample graph: u,v,w = 0,1,2; a,b,c,d,e = 3..7
    return Graph(8, [(4, 3), (4, 0), (4, 1), (5, 3), (5, 0), (5, 1),
                     (6, 3), (6, 0), (6, 1), (7, 4), (7, 5), (2, 7), (2, 6)],
                 ("u", "v", "w", "a", "b", "c", "d", "e"))


def test_parse_triangle():
    g = parse_graph_with_T('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')[0]
    assert g.n == 3 and len(g.edges) == 3
    assert g == complete_graph(3)


def test_parse_rejects_loop():
    with pytest.raises(GraphParseError, match="loop"):
        parse_graph_with_T('{"n":2,"edges":[[0,0]]}')


def test_parse_rejects_duplicate_and_range():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_graph_with_T('{"n":3,"edges":[[0,1],[1,0]]}')
    with pytest.raises(GraphParseError, match="outside"):
        parse_graph_with_T('{"n":2,"edges":[[0,5]]}')


@pytest.mark.parametrize("text, message", [
    ('{"n":3,"edges":[[0,1],[1,0]]}', "duplicate edge [1, 0]"),
    ('{"n":3,"edges":[[0,1],[1,2],[2,1],[1,0]]}', "duplicate edge [2, 1]"),
    ('{"n":2,"edges":[[0,0]]}', "loop edge [0, 0] is not allowed"),
    ('{"n":2,"edges":[[1,0],[0,5]]}', "edge [0, 5] has an endpoint outside 0..1"),
    ('{"n":2,"edges":[[-1,0]]}', "edge [-1, 0] has an endpoint outside 0..1"),
    ('{"n":2,"edges":[[0,1,1]]}', "malformed edge [0, 1, 1]"),
    ('{"n":2,"edges":[[0,false]]}', "malformed edge [0, False]"),
    # the shape of every edge is checked before any loop or range
    ('{"n":2,"edges":[[0,0],[0,1.0]]}', "malformed edge [0, 1.0]"),
])
def test_json_edge_errors_name_the_edge_as_written(text, message):
    with pytest.raises(GraphParseError) as info:
        parse_graph_with_T(text)
    assert str(info.value) == message


def test_edge_list_is_sorted_once_and_copied_per_call():
    g = Graph(4, [(2, 3), (1, 0), (0, 2)])
    first = g.edge_list()
    assert first == [(0, 1), (0, 2), (2, 3)]
    first.append((5, 6))
    first.sort(reverse=True)
    assert g.edge_list() == [(0, 1), (0, 2), (2, 3)]
    # every derived graph sorts its own edges
    assert g.add_edges([(1, 3)]).edge_list() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert g.delete_edges([(0, 2)]).edge_list() == [(0, 1), (2, 3)]
    assert g.contract({0, 3}).edge_list() == [(0, 1), (0, 2)]
    assert g.edge_list() == [(0, 1), (0, 2), (2, 3)]


def test_parse_edge_list_format():
    g = parse_graph_with_T("3 2\n0 1\n1 2\n")[0]
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(GraphParseError):
        parse_graph_with_T("3 2\n0 1\n")


def test_parse_T_and_labels():
    text = '{"n":3,"edges":[[0,1]],"T":[0,2],"labels":{"0":"u","2":"w"}}'
    g, T = parse_graph_with_T(text)
    assert T == frozenset({0, 2})
    assert g.labels == ("u", "1", "w")


def test_default_labels_are_built_on_demand():
    # a file's "n" costs nothing until a verb's games run: parsing keeps
    # no per-vertex name, so a billion vertices parse in O(|E|)
    tracemalloc.start()
    try:
        g, _ = parse_graph_with_T('{"n": 1000000000, "edges": [[0, 999999999]]}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10 ** 9 and g.has_default_labels and peak < 100_000
    assert graph_to_json(g) == '{"n": 1000000000, "edges": [[0, 999999999]]}'
    # explicit names equal to the ids are the default: equal, same hash,
    # and left out of the JSON, from a file or from the constructor
    plain = Graph(3, [(0, 1)])
    for same in (Graph(3, [(0, 1)], ("0", "1", "2")),
                 parse_graph_with_T('{"n": 3, "edges": [[0, 1]], "labels": {"1": "1"}}')[0]):
        assert same == plain and hash(same) == hash(plain) and same.has_default_labels
        assert same.labels == plain.labels == ("0", "1", "2")
        assert graph_to_json(same) == graph_to_json(plain) == '{"n": 3, "edges": [[0, 1]]}'
    named = Graph(3, [(0, 1)], ("0", "x", "2"))
    assert named != plain and not named.has_default_labels
    assert '"labels": {"0": "0", "1": "x", "2": "2"}' in graph_to_json(named)
    # removing the last vertex keeps the default; removing another renames
    assert plain.remove_vertex(2).has_default_labels
    assert plain.remove_vertex(0).labels == ("1", "2")


def test_roundtrip_random_graphs():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randint(0, len(pairs))
        g = Graph(n, rng.sample(pairs, m))
        assert parse_graph_with_T(graph_to_json(g))[0] == g


def test_induced_edge_count():
    K4 = complete_graph(4)
    assert K4.induced_edge_count(range(4)) == 6
    assert K4.induced_edge_count({0, 1}) == 1
    assert fig4().induced_edge_count({4, 0, 1}) == 2  # edges bu, bv
    with pytest.raises(ValueError):
        K4.induced_edge_count({0, 9})


def test_induced_count_monotone_and_total():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert g.induced_edge_count(range(n)) == len(g.edges)
        X = set(rng.sample(range(n), rng.randint(0, n)))
        Y = X | set(rng.sample(range(n), rng.randint(0, n)))
        assert g.induced_edge_count(X) <= g.induced_edge_count(Y)


def test_neighbors_and_degree():
    g = fig4()
    assert g.neighbors(7) == {2, 4, 5} and g.degree(7) == 3
    assert all(g.neighbors(v) == {w for e in g.edges if v in e for w in e} - {v}
               for v in range(g.n))
    assert Graph(3, [(0, 1)]).neighbors(2) == set()
    for v in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            g.neighbors(v)
        with pytest.raises(ValueError, match="out of range"):
            g.degree(v)


def test_contract_fig4():
    g = fig4()
    guv = g.contract({0, 1})
    assert (guv.n, len(guv.edges)) == (7, 10)
    gT = g.contract({0, 1, 2})
    assert (gT.n, len(gT.edges)) == (6, 9)


def test_contract_triangle_and_errors():
    K3 = complete_graph(3)
    g = K3.contract({0, 1})
    assert (g.n, len(g.edges)) == (2, 1)
    with pytest.raises(ValueError):
        K3.contract({0})


def test_contract_vertex_accounting_and_labels():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(3, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        S = set(rng.sample(range(n), rng.randint(2, n)))
        c = g.contract(S)
        assert c.n == g.n - len(S) + 1
        merged = "+".join(sorted(str(v) for v in S))
        assert merged in c.labels


def test_contract_composition():
    # contracting S then S' (through the merged vertex) equals one shot
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(4, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(2, len(pairs))))
        verts = rng.sample(range(n), rng.randint(3, n))
        S = set(verts[:2])
        extra = set(verts[2:])
        step1 = g.contract(S)
        zid = step1.contraction_map if False else g.contraction_map(S)
        merged_id = zid[next(iter(S))]
        emap = {v: zid[v] for v in extra}
        step2 = step1.contract({merged_id} | set(emap.values()))
        whole = g.contract(S | extra)
        assert step2 == whole


def test_delete_edges():
    K4 = complete_graph(4)
    assert len(K4.delete_edges([(0, 1)]).edges) == 5
    K3 = complete_graph(3)
    assert K3.delete_edges([(5, 7) if False else (0, 1)]).edges != K3.edges
    # absent edges are ignored
    assert K3.delete_edges([]) == K3
    g = Graph(4, [(0, 1)])
    assert g.delete_edges([(0, 1), (0, 2), (1, 2)]).edges == frozenset()


def test_add_and_remove_vertex():
    g = Graph(2, [(0, 1)]).add_vertex([0, 1])
    assert g == complete_graph(3)
    h = g.remove_vertex(1)
    assert h.n == 2 and h.edges == frozenset({(0, 1)})
    assert h.labels == ("0", "2")


# every public entry point that takes a coincidence set T (or a base set S)
T_ENTRY_POINTS = {
    "generic_rank": lambda g, T: generic_rank(g, T, 2),
    "sample_T_coincident": lambda g, T: sample_T_coincident(g, T, 2, 0),
    "rt_oracle": rt_oracle,
    "mt_oracle": mt_oracle,
    "mt_rank_cover_min": mt_rank_cover_min,
    "is_S_sparse": is_S_sparse,
    "is_strongly_T_sparse": is_strongly_T_sparse,
    "coincident_rigid_combinatorial": coincident_rigid_combinatorial,
    "check_coincident_rigidity": check_coincident_rigidity,
    # z = 3 lies outside each bad T, so the T check is reached
    "reduce_low_degree": lambda g, T: reduce_low_degree(g, T, 3),
}


@pytest.mark.parametrize("bad, message", [
    (set(), "must be nonempty"),
    ({0, 4}, "contains invalid vertex 4"),
    ({-1, 0}, "contains invalid vertex -1"),
], ids=["empty", "above-n", "negative"])
@pytest.mark.parametrize("entry", list(T_ENTRY_POINTS))
def test_every_entry_point_checks_T(entry, bad, message):
    # one check, Graph._check_T, behind every entry point and message
    want = f"^{'S' if entry == 'is_S_sparse' else 'T'} {message}$"
    with pytest.raises(ValueError, match=want):
        T_ENTRY_POINTS[entry](complete_graph(4), bad)
