"""Correctness gate for benchmark operations, run outside the timed region.

Every operation must exit 0.  Each witness in its JSON report is recounted
here from the input document alone, without calling ``coinrig``: a
violating set or family must exceed its capacity, and a dual cover must be
1-thin, cover every edge not inside T, and have value equal to the rank.
The decision fields of each report must also match ``reference.json``,
recorded from the seed code (``record.py``); ``method``, ``note`` and
timings are left out of that comparison.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class GateError(Exception):
    """An operation's output failed a correctness check."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GateError(msg)


def _ids(names) -> set:
    # inputs carry no labels, so the CLI names each vertex by its id string
    return {int(v) for v in names}


def _edges_inside(edges: set, vs) -> set:
    vs = set(vs)
    return {e for e in edges if e[0] in vs and e[1] in vs}


def _check_violation(v: dict, edges: set, T: set) -> None:
    S = _ids(v["S"])
    _require(S and S <= T, f"violation base set {sorted(S)} is not a nonempty subset of T")
    if v["kind"] == "set":
        X = _ids(v["witness"])
        _require(len(X) >= 2, "violating set has fewer than two vertices")
        cap = 0 if X <= S else 2 * len(X) - 3
        lhs = len(_edges_inside(edges, X))
    else:
        _require(v["kind"] == "family", f"unknown violation kind {v['kind']!r}")
        members = [_ids(H) for H in v["witness"]]
        _require(members, "violating family is empty")
        for H in members:
            _require(S < H, f"family member {sorted(H)} does not properly contain S")
        for H, K in combinations(members, 2):
            _require(H & K == S, "family members do not meet exactly in S")
        cap = (sum(2 * len(H - S) - 1 for H in members) + 2 * (len(S) - 1))
        covered = set()
        for H in members:
            covered |= _edges_inside(edges, H)
        lhs = len(covered)
    _require(lhs == v["lhs"], f"witness covers {lhs} edges, report says {v['lhs']}")
    _require(cap == v["rhs"], f"witness capacity is {cap}, report says {v['rhs']}")
    _require(lhs > cap, f"witness with {lhs} edges does not exceed capacity {cap}")


def _check_dual(dual: dict, rank: int, edges: set, T: set) -> None:
    S = _ids(dual["S"])
    _require(len(S) >= 2 and S <= T, "dual cover base set is not a subset of T of size >= 2")
    family = [_ids(H) for H in dual["family"]]
    xsets = [_ids(X) for X in dual["xsets"]]
    for X in xsets:
        _require(len(X) >= 2, "cover set with fewer than two vertices")
    for X, Y in combinations(xsets, 2):
        _require(len(X & Y) <= 1, "cover sets meet in two vertices (T.1)")
    union_h = set()
    for H in family:
        _require(S < H, "family member does not properly contain S")
        union_h |= H
    for H, K in combinations(family, 2):
        _require(H & K == S, "family members do not meet exactly in S (T.2)")
    for X in xsets:
        _require(len(X & union_h) <= 1, "cover set meets the family in two vertices (T.3)")
    covered = set()
    for part in xsets + family:
        covered |= _edges_inside(edges, part)
    must = edges - _edges_inside(edges, T)
    _require(must <= covered, f"{len(must - covered)} edges outside T are not covered")
    value = sum(2 * len(X) - 3 for X in xsets)
    if family:
        value += sum(2 * len(H - S) - 1 for H in family) + 2 * (len(S) - 1)
    _require(value == rank, f"dual cover has value {value}, rank is {rank}")


def decision(verb: str, doc: dict) -> dict:
    """The fields of a report that a faster program must reproduce exactly."""
    if verb == "check":
        return {"combinatorial": doc["combinatorial"], "algebraic": doc["algebraic"],
                "failing_S": doc["failing_S"],
                "reports": [{k: r[k] for k in ("rank", "target", "rigid", "independent",
                                               "trials", "seed")}
                            for r in doc["reports"]]}
    if verb == "xval":
        return {k: doc[k] for k in ("samples", "by_t_size", "mismatches",
                                    "mismatch_details", "conjectural")}
    if verb == "sparse":
        return {k: doc[k] for k in ("sparse", "strong", "T", "violation")}
    if verb == "mrank":
        return {k: doc[k] for k in ("T", "mt") if k in doc}
    raise GateError(f"no decision fields defined for verb {verb!r}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)["decisions"]
    except FileNotFoundError:
        return {}


def check(verb: str, rc: int, stdout: str, graph_doc: str | None, expect: dict) -> dict:
    """Gate one operation; returns its decision fields or raises GateError."""
    _require(rc == 0, f"exit code {rc}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise GateError(f"stdout is not one JSON document: {e}") from None
    g = json.loads(graph_doc) if graph_doc is not None else None
    edges = {tuple(sorted(e)) for e in g["edges"]} if g else set()
    T = set(g.get("T") or ()) if g else set()
    if verb == "check":
        _require(doc["combinatorial"] == doc["algebraic"],
                 "combinatorial and algebraic verdicts differ")
        _require(doc["n"] == expect["n"], "report is for another graph")
        for r in doc["reports"]:
            _require(r["rigid"] == (r["rank"] == r["target"]), "rigid flag disagrees with rank")
            _require(r["target"] == 2 * doc["n"] - 3, "rigidity target is not 2n-3")
            _require(r["rank"] <= min(len(edges), r["target"]), "rank exceeds its bound")
        if doc["combinatorial"] is False:
            _require(doc["failing_S"] is not None and set(doc["failing_S"]) <= T,
                     "flexible verdict without a failing S inside T")
    elif verb == "xval":
        _require(doc["mismatches"] == 0, f"{doc['mismatches']} xval mismatches")
        _require(doc["samples"] == expect["samples"], "xval ran another number of samples")
        _require(sum(doc["by_t_size"].values()) == doc["samples"], "by_t_size does not add up")
    elif verb == "sparse":
        _require(doc["sparse"] == expect["sparse"],
                 f"sparse verdict {doc['sparse']}, input built to be {expect['sparse']}")
        _require(doc["sparse"] == (doc["violation"] is None), "verdict and witness disagree")
        if doc["violation"] is not None:
            _check_violation(doc["violation"], edges, T)
    elif verb == "mrank":
        mt = doc["mt"]
        base = {tuple(sorted(_ids(e))) for e in mt["base"]}
        _require(len(base) == len(mt["base"]) == mt["rank"], "base size is not the rank")
        _require(base <= edges, "base holds an edge not in the graph")
        _require("dual" in mt, "no dual cover witness")
        _check_dual(mt["dual"], mt["rank"], edges, T)
    else:
        raise GateError(f"unknown verb {verb!r}")
    return decision(verb, doc)
