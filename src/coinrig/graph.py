"""Simple undirected graphs with contraction, deletion and induced counts.

Vertices are dense ids 0..n-1.  Graphs are immutable values: every
operation returns a new canonicalized graph, so they can be shared freely
between threads and cached by identity of content.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping


class GraphParseError(ValueError):
    """Raised when a graph document is malformed."""


def _canon_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _merge_label(parts: Iterable[str]) -> str:
    # labels of merged vertices are joined associatively so that repeated
    # contractions commute: split on '+' and re-sort the components
    comps = set()
    for p in parts:
        comps.update(p.split("+"))
    return "+".join(sorted(comps))


class Graph:
    """Simple graph: no loops, no parallel edges, vertex ids 0..n-1."""

    __slots__ = ("n", "edges", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: tuple[str, ...] | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop edge [{a}, {a}] is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge [{a}, {b}] has an endpoint outside 0..{n - 1}")
            canon.add(_canon_edge(a, b))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(canon))
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        elif len(labels) != n:
            raise ValueError("labels must cover every vertex")
        object.__setattr__(self, "labels", tuple(labels))

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, self.labels))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in canonical (lexicographic) order."""
        return sorted(self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return _canon_edge(a, b) in self.edges

    def neighbors(self, v: int) -> set[int]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def adjacency_masks(self) -> list[int]:
        """Neighborhoods as bitmasks, one int per vertex."""
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def _check_subset(self, X: Iterable[int]) -> frozenset[int]:
        xs = frozenset(X)
        for v in xs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} is not a vertex of the graph")
        return xs

    # -- operations ----------------------------------------------------

    def induced_edge_count(self, X: Iterable[int]) -> int:
        """Number of edges with both endpoints in X."""
        xs = self._check_subset(X)
        return sum(1 for a, b in self.edges if a in xs and b in xs)

    def induced_edges(self, X: Iterable[int]) -> list[tuple[int, int]]:
        xs = self._check_subset(X)
        return sorted(e for e in self.edges if e[0] in xs and e[1] in xs)

    def contract(self, S: Iterable[int]) -> "Graph":
        """Contract the vertices of S to a single vertex.

        The merged vertex keeps the smallest id of S; remaining vertices are
        renumbered densely preserving order.  Loops are dropped and parallel
        edges merged, so the result is simple.
        """
        ss = self._check_subset(S)
        remap = self.contraction_map(ss)
        new_edges = set()
        for a, b in self.edges:
            na, nb = remap[a], remap[b]
            if na != nb:
                new_edges.add(_canon_edge(na, nb))
        new_labels = [""] * (self.n - len(ss) + 1)
        for v in range(self.n):
            new_labels[remap[v]] = self.labels[v]
        new_labels[remap[min(ss)]] = _merge_label(self.labels[v] for v in ss)
        return Graph(len(new_labels), new_edges, tuple(new_labels))

    def contraction_map(self, S: Iterable[int]) -> dict[int, int]:
        """Old-id -> new-id map of :meth:`contract` (all of S maps to one id)."""
        ss = self._check_subset(S)
        if len(ss) < 2:
            raise ValueError("contraction needs at least two vertices")
        keep = min(ss)
        remap = {}
        nxt = 0
        for v in range(self.n):
            if v in ss and v != keep:
                continue
            remap[v] = nxt
            nxt += 1
        for v in ss:
            remap[v] = remap[keep]
        return remap

    def delete_edges(self, F: Iterable[tuple[int, int]]) -> "Graph":
        """Remove the listed edges; absent edges are ignored."""
        drop = {_canon_edge(a, b) for a, b in F}
        return Graph(self.n, self.edges - drop, self.labels)

    def minus_T_edges(self, T: Iterable[int]) -> "Graph":
        """Remove every edge with both endpoints in T."""
        ts = self._check_subset(T)
        kept = {e for e in self.edges if not (e[0] in ts and e[1] in ts)}
        return Graph(self.n, kept, self.labels)

    def add_edges(self, F: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n, set(self.edges) | {_canon_edge(a, b) for a, b in F},
                     self.labels)

    def add_vertex(self, edges_to: Iterable[int] = (), label: str | None = None) -> "Graph":
        """Append a new vertex with id n, joined to ``edges_to``."""
        w = self.n
        new = set(self.edges)
        for v in edges_to:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} is not a vertex of the graph")
            new.add((v, w))
        labels = self.labels + ((label if label is not None else str(w)),)
        return Graph(self.n + 1, new, labels)

    def remove_vertex(self, z: int) -> "Graph":
        """Delete z and its edges; vertices above z shift down by one."""
        if not 0 <= z < self.n:
            raise ValueError(f"vertex {z} is not a vertex of the graph")
        remap = {v: (v if v < z else v - 1) for v in range(self.n) if v != z}
        edges = {(_canon_edge(remap[a], remap[b]))
                 for a, b in self.edges if a != z and b != z}
        labels = tuple(self.labels[v] for v in range(self.n) if v != z)
        return Graph(self.n - 1, edges, labels)


# -- serialization -----------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph format or the plain edge-list text format.

    JSON: ``{"n": int, "edges": [[i, j], ...], "labels": {"i": name}?, "T": [...]?}``.
    Text: first line ``n m`` then m lines ``i j``.
    """
    g, _ = parse_graph_with_T(text)
    return g


def parse_graph_with_T(text: str) -> tuple[Graph, frozenset[int] | None]:
    """Like :func:`parse_graph` but also returns the optional T set."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_edge_list(stripped), None


def _parse_json(text: str) -> tuple[Graph, frozenset[int] | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphParseError('graph JSON needs "n" and "edges"')
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise GraphParseError(f'"n" must be a nonnegative integer, got {n!r}')
    seen = set()
    edges = []
    for e in doc["edges"]:
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or not all(isinstance(x, int) for x in e)):
            raise GraphParseError(f"malformed edge {e!r}")
        a, b = e
        if a == b:
            raise GraphParseError(f"loop edge {e!r} is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"edge {e!r} has an endpoint outside 0..{n - 1}")
        c = _canon_edge(a, b)
        if c in seen:
            raise GraphParseError(f"duplicate edge {e!r}")
        seen.add(c)
        edges.append(c)
    labels = None
    if "labels" in doc and doc["labels"] is not None:
        raw: Mapping = doc["labels"]
        labels = [str(i) for i in range(n)]
        for k, name in raw.items():
            try:
                i = int(k)
            except ValueError:
                raise GraphParseError(f"label key {k!r} is not a vertex id")
            if not 0 <= i < n:
                raise GraphParseError(f"label key {k!r} outside 0..{n - 1}")
            labels[i] = str(name)
        labels = tuple(labels)
    tset = None
    if "T" in doc and doc["T"] is not None:
        tset = frozenset(doc["T"])
        for v in tset:
            if not (isinstance(v, int) and 0 <= v < n):
                raise GraphParseError(f"T contains invalid vertex {v!r}")
    return Graph(n, edges, labels), tset


def _parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphParseError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f'first line must be "n m", got {lines[0]!r}')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError(f'first line must be "n m", got {lines[0]!r}')
    if len(lines) - 1 != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"malformed edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed edge line {ln!r}")
        if a == b:
            raise GraphParseError(f"loop edge line {ln!r} is not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"edge line {ln!r} has an endpoint outside 0..{n - 1}")
        edges.append((a, b))
    g = Graph(n, edges)
    if len(g.edges) != m:
        raise GraphParseError("duplicate edge in edge-list document")
    return g


def graph_to_json(g: Graph, T: Iterable[int] | None = None) -> str:
    """Canonical JSON serialization (round-trips through parse_graph)."""
    doc: dict = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    if g.labels != tuple(str(i) for i in range(g.n)):
        doc["labels"] = {str(i): g.labels[i] for i in range(g.n)}
    if T is not None:
        doc["T"] = sorted(T)
    return json.dumps(doc)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part one is 0..a-1, part two is a..a+b-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
