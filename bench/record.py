"""Record the reference decisions that the correctness gate compares against.

Run from the repository root, on the code whose decisions are the
reference:

    python3 bench/record.py --seeds 0-31

Every operation of every workload at each seed is run once and gated;
the digest of its decision fields (``gate.decision``) is stored under the
digest of its input (``workloads.input_key``) in ``reference.json``.
Entries already in the file are kept, so seed ranges can be added later.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import gate
import run


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def save(ref: dict) -> None:
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,9-12")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    try:
        with open(gate.REFERENCE_PATH) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"recorded_on": run.machine_info(), "seeds": {}, "decisions": {}}
    run.import_program()
    import workloads
    from coinrig import cli
    workdir = run.ROOT / ".bench_work" / str(os.getpid())
    try:
        for name in args.workloads.split(","):
            for seed in seeds:
                pool = workloads.make_pool(name, seed)
                pool.write_inputs(workdir)
                for op in pool.ops:
                    call = run.run_call(cli, op)
                    dec = gate.check(op.argv[0], call.rc, call.stdout, op.graph_doc, op.expect)
                    ref["decisions"][gate.digest(workloads.input_key(op))] = gate.digest(dec)
                done = set(ref["seeds"].get(name, [])) | {seed}
                ref["seeds"][name] = sorted(done)
                print(f"{name} seed {seed}: {len(pool.ops)} operations", file=sys.stderr)
            save(ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
