"""Command-line interface.

Verbs: rank, sparse, mrank, gen, transform, check, xval, conjecture,
fixtures.  Each prints its report as one line of JSON on stdout; --out
also writes that line to a file.
Exit codes: 0 consistent, 1 theorem violation detected, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .checks import (check_coincident_rigidity, conjecture_search,
                     cross_validate, fixtures)
from .constructions import SplitSpec, henneberg_random, one_extension, \
    vertex_split, zero_extension
from .graph import Graph, GraphParseError, graph_to_json, parse_graph_with_T
from .linalg import generic_rank
from .matroid import greedy_rank, mt_oracle, mt_rank_cover_min, rt_oracle
from .pebble import InvariantError
from .sparsity import is_S_sparse, is_strongly_T_sparse


class UsageError(Exception):
    pass


def _load_graph(path: str) -> tuple[Graph, frozenset | None]:
    try:
        with open(path) as fh:
            return parse_graph_with_T(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except GraphParseError as e:
        raise UsageError(str(e))


def _parse_T(arg: str | None, file_T, g: Graph, required: bool = False):
    if arg is not None:
        try:
            T = frozenset(int(x) for x in arg.split(",") if x.strip() != "")
        except ValueError:
            raise UsageError(f"--T must be a comma-separated id list, got {arg!r}")
    else:
        T = file_T
    if T is None:
        if required:
            raise UsageError("no T given (use --T or a T field in the graph file)")
        return None
    return g._check_T(T)


def _emit(doc: dict, out: str | None):
    # one line, by json's C encoder (an indent runs the pure-Python one)
    text = json.dumps(doc)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"cannot write {out}: {e}")
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout closed early (``| head``): end quietly
        # point stdout at devnull, so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _theorem_violated(what: str) -> int:
    """Report a disagreement of the two sides on stderr; exit code 1."""
    print(f"error: theorem violated: {what}", file=sys.stderr)
    return 1


def _cmd_rank(args) -> int:
    g, file_T = _load_graph(args.graph)
    T = _parse_T(args.T, file_T, g)
    if T is None and g.n == 0:
        raise UsageError("the graph is empty: no vertex to default T to")
    rep = generic_rank(g, T or frozenset({0}), args.d, seed=args.seed)
    _emit(rep.to_dict(), args.out)
    return 0


def _cmd_sparse(args) -> int:
    g, file_T = _load_graph(args.graph)
    T = _parse_T(args.T, file_T, g, required=True)
    if args.strong:
        violation = is_strongly_T_sparse(g, T)
    else:
        violation = is_S_sparse(g, T)
    doc = {"sparse": violation is None,
           "strong": bool(args.strong),
           "T": sorted(T),
           "violation": violation.to_dict(g.labels) if violation else None}
    _emit(doc, args.out)
    return 0


def _cmd_mrank(args) -> int:
    if args.oracle == "rt" and args.witness:
        raise UsageError("--witness needs --oracle mt or both: the cover certifies mt")
    g, file_T = _load_graph(args.graph)
    T = _parse_T(args.T, file_T, g, required=True)
    doc: dict = {"T": sorted(T)}
    mismatches = []
    if args.oracle in ("mt", "both"):
        cert = greedy_rank(mt_oracle(g, T))
        if args.witness:
            with warnings.catch_warnings():  # "conjectural" is in the JSON
                warnings.simplefilter("ignore")
                value, dual = mt_rank_cover_min(g, T, lower=cert.rank)
            if value == cert.rank:
                cert.dual = dual
            else:  # greedy/cover disagreement: only conceivable for |T| >= 4
                doc["cover_min"] = value
                mismatches.append(f"greedy mt rank {cert.rank}, cover minimum {value}")
        doc["mt"] = cert.to_dict(g.labels)
    if args.oracle in ("rt", "both"):
        cert = greedy_rank(rt_oracle(g, T, seed=args.seed))
        doc["rt"] = cert.to_dict(g.labels)
    _emit(doc, args.out)
    if args.oracle == "both" and doc["mt"]["rank"] != doc["rt"]["rank"]:
        mismatches.append(f"mt rank {doc['mt']['rank']}, rt rank {doc['rt']['rank']}")
    return _theorem_violated("; ".join(mismatches)) if mismatches else 0


def _cmd_gen(args) -> int:
    g = henneberg_random(args.henneberg, args.seed)
    _emit(json.loads(graph_to_json(g)), args.out)
    return 0


def _cmd_transform(args) -> int:
    g, file_T = _load_graph(args.graph)
    parts = args.args.split(":")
    try:
        if args.op == "0ext":
            a, b = (int(x) for x in parts[0].split(","))
            out = zero_extension(g, a, b)
        elif args.op == "1ext":
            u, v, x = (int(x) for x in parts[0].split(","))
            out = one_extension(g, (u, v), x)
        else:  # split, args "z:U1:U2:U3" with comma lists (U1/U3 may be empty)
            if len(parts) != 4:
                raise UsageError('split needs --args "z:U1:U2:U3"')
            z = int(parts[0])
            sets = [frozenset(int(x) for x in p.split(",") if x != "")
                    for p in parts[1:]]
            out = vertex_split(g, SplitSpec(z, *sets))
    except (ValueError, IndexError) as e:
        raise UsageError(f"bad --args for {args.op}: {e}")
    _emit(json.loads(graph_to_json(out, file_T)), args.out)
    return 0


def _cmd_check(args) -> int:
    g, file_T = _load_graph(args.graph)
    T = _parse_T(args.T, file_T, g, required=True)
    verdict = check_coincident_rigidity(g, T, seed=args.seed)
    _emit(verdict.to_dict(), args.out)
    if verdict.combinatorial is not None and verdict.combinatorial != verdict.algebraic:
        return _theorem_violated(f"combinatorial verdict {verdict.combinatorial}, "
                                 f"algebraic verdict {verdict.algebraic}")
    return 0


def _cmd_xval(args) -> int:
    try:
        t_sizes = [int(x) for x in args.t_sizes.split(",")]
    except ValueError:
        t_sizes = [0]
    if min(t_sizes) < 1:
        raise UsageError(f"--t-sizes must list integers >= 1, got {args.t_sizes!r}")
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    report = cross_validate(args.n_max, t_sizes, args.samples, args.seed)
    _emit(report, args.out)
    proven = [m for m in report["mismatch_details"] if not m["conjectural"]]
    if proven:
        return _theorem_violated(f"mt and rt ranks differ on {len(proven)} "
                                 "instances with |T| <= 3")
    return 0


def _cmd_conjecture(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget must be at least 0, got {args.budget}")
    report = conjecture_search(args.n_max, args.t_size, args.budget, args.seed)
    _emit(report, args.out)
    if report["candidates"]:
        print(f"error: conjecture violated: {len(report['candidates'])} "
              "re-verified candidates", file=sys.stderr)
        return 1
    return 0


def _cmd_fixtures(args) -> int:
    doc = {}
    for name, f in fixtures().items():
        entry = json.loads(graph_to_json(f.graph, f.T))
        if f.realization is not None:
            entry["realization"] = json.loads(f.realization.to_json())
        doc[name] = entry
    _emit(doc, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="coinrig",
                                 description="coincident-vertex rigidity toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON or edge-list file")
        p.add_argument("--out", help="also write the JSON report to this file")

    p = sub.add_parser("rank", help="generic T-coincident rank report")
    common(p)
    p.add_argument("--T", help="comma-separated vertex ids")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("sparse", help="S-sparsity / strong T-sparsity verdict")
    common(p)
    p.add_argument("--T", help="comma-separated vertex ids")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=_cmd_sparse)

    p = sub.add_parser("mrank", help="matroid rank certificate")
    common(p)
    p.add_argument("--T", help="comma-separated vertex ids")
    p.add_argument("--oracle", choices=["mt", "rt", "both"], default="mt")
    p.add_argument("--witness", action="store_true",
                   help="attach the dual cover witness (mt only)")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_mrank)

    p = sub.add_parser("gen", help="random Henneberg graph")
    common(p, graph=False)
    p.add_argument("--henneberg", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("transform", help="apply a growth operation")
    common(p)
    p.add_argument("--op", choices=["0ext", "1ext", "split"], required=True)
    p.add_argument("--args", required=True,
                   help='0ext "a,b"; 1ext "u,v,x"; split "z:U1:U2:U3"')
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("check", help="coincident-rigidity verdicts for one graph")
    common(p)
    p.add_argument("--T", help="comma-separated vertex ids")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("xval", help="combinatorial vs algebraic cross-validation")
    common(p, graph=False)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--t-sizes", default="1,2,3")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_xval)

    p = sub.add_parser("conjecture", help="search for a |T|>=4 counterexample")
    common(p, graph=False)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--t-size", type=int, default=4)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("fixtures", help="dump the bundled graphs")
    common(p, graph=False)
    p.set_defaults(fn=_cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:  # a proof-step bound failed
        print(f"error: invariant violated: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
