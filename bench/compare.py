"""Compare benchmark result files of a parent commit and a change.

    python3 bench/compare.py --parent PARENT_DIR --change CHANGE_DIR

Both directories hold result files written by ``run.py`` (``--results-dir``)
with identical benchmark code and settings.  For every workload and
end-to-end metric it prints each side's median and quartiles, the pairs the
change won, and a verdict:

- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- improved: the change won at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
- unresolved: the parent's own spread is wider than the bound, and not every
  run of the change reads better than every run of the parent;
- unchanged: none of the above.

Runs pair up by workload and seed, in the order they were made.  Traced
runs are listed by per-layer medians, without verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    runs = []
    for p in sorted(directory.glob("*.json")):
        with open(p) as fh:
            doc = json.load(fh)
        if "workload" in doc and "metrics" in doc:
            runs.append(doc)
    runs.sort(key=lambda r: r["started_unix"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = {}
    for r in parent:
        by_seed.setdefault(r["seed"], []).append(r)
    out = []
    for r in change:
        queue = by_seed.get(r["seed"])
        if queue:
            out.append((queue.pop(0), r))
    return out


def verdict(p_vals, c_vals, won, n_pairs, lower_better: bool, bound: float) -> str:
    sign = 1.0 if lower_better else -1.0
    p1, pm, p3 = quartiles(p_vals)
    _, cm, _ = quartiles(c_vals)
    worse_by = sign * (cm - pm) / pm
    if worse_by > bound:
        return "worse"
    if n_pairs and won >= 0.9 * n_pairs and -sign * (cm - pm) > p3 - p1:
        return "improved"
    all_better = (max(c_vals) < min(p_vals)) if lower_better else (min(c_vals) > max(p_vals))
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    lines = []
    for workload in sorted({r["workload"] for r in parent + change}):
        for trace in (0, 1):
            p_runs = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not p_runs or not c_runs:
                continue
            matched = pairs(p_runs, c_runs)
            p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
            c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
            lines.append(f"== {workload} trace={trace}: {len(p_runs)} parent runs, "
                         f"{len(c_runs)} change runs, {len(matched)} pairs; failed_frac "
                         f"parent {p_fail:.4g}, change {c_fail:.4g}")
            if c_fail > p_fail:
                lines.append("   change fails more operations: no gain counts")
            metrics = spec["end_to_end"] if trace == 0 else [
                {"name": n} for n in sorted(p_runs[0]["metrics"])]
            for m in metrics:
                name = m["name"]
                p_vals = [r["metrics"][name]["value"] for r in p_runs]
                c_vals = [r["metrics"][name]["value"] for r in c_runs]
                p1, pm, p3 = quartiles(p_vals)
                c1, cm, c3 = quartiles(c_vals)
                row = (f"   {name:30s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                       f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]")
                if trace == 0:
                    lower = m["better"] == "lower"
                    won = sum((c["metrics"][name]["value"] < p["metrics"][name]["value"])
                              if lower else
                              (c["metrics"][name]["value"] > p["metrics"][name]["value"])
                              for p, c in matched)
                    row += (f"  won {won}/{len(matched)}  "
                            f"{verdict(p_vals, c_vals, won, len(matched), lower, m['bound'])}")
                lines.append(row)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    for side, runs in (("parent", parent), ("change", change)):
        machines = {(r["machine"]["python"], r["machine"]["cpu_model"], r["machine"]["nproc"],
                     r["machine"]["git_commit"] or r["machine"]["source_sha256"][:12])
                    for r in runs}
        print(f"{side}: " + "; ".join(" / ".join(map(str, m)) for m in sorted(machines)))
    print("\n".join(compare(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
