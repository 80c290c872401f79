"""coinrig benchmark: time-to-verdict of the CLI verbs, with traced layers.

Run from the repository root:

    python3 bench/run.py --workload check-large --seed 1 --seconds 35 --trace 0

One client in a closed loop: each ``coinrig`` CLI call is made in-process
through ``coinrig.cli.main(argv)`` only after the previous one returned.
Whole blocks of the workload's operations run until ``--seconds`` have
passed.  Each call's stdout is captured and checked by the correctness gate
(``gate.py``) after the clock has stopped.  Call times are reported at
nominal machine speed: a fixed reference kernel is timed between calls and
each call's wall time is scaled by it (``speed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and traced in alternating order, and reports the
per-layer metrics of ``spans.py`` per traced operation, together with the
tracing overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(machine, seed, per-class latencies, span table) goes to a result file in
``--results-dir``, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("check-large", "xval-sweep", "certify")
SETUP_SAMPLES = 5          # set-ups per run: this process plus four probes
TAIL_BEYOND = 10           # samples the tail percentile leaves above it

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    return "s/op" if name.endswith("_s") else "1/op"


@dataclass
class Call:
    op: object             # workloads.Op
    seconds: float
    rc: int | None
    stdout: str
    error: str | None      # traceback when the call raised
    traced: bool = False
    ref_before: float = 0.0  # reference-kernel seconds just before and after
    ref_after: float = 0.0   # the call (speed.py)

    def scaled(self) -> float:
        return speed.scaled(self.seconds, self.ref_before, self.ref_after)


def run_call(cli, op, traced: bool = False) -> Call:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.resolved_argv())
    except Exception:  # the loop goes on; the failure is counted by the gate
        error = traceback.format_exc()
    dt = perf_counter() - t0
    return Call(op, dt, rc, out.getvalue(), error, traced)


def set_up(workload: str, seed: int, scale: str, workdir: Path):
    """Import, generate and write the inputs, and warm up: timed as setup_s.

    Returns the set-up's wall time and that time at nominal speed last.
    """
    speed.time_kernel()    # warm-up, not used
    before = speed.time_kernel()
    t0 = perf_counter()
    import_program()
    cli = importlib.import_module("coinrig.cli")
    workloads = importlib.import_module("workloads")
    pool = workloads.make_pool(workload, seed, scale)
    pool.write_inputs(workdir)
    warm = run_call(cli, pool.ops[0])
    wall = perf_counter() - t0
    return cli, workloads, pool, warm, wall, speed.scaled(wall, before, speed.time_kernel())


def measure(cli, pool, seconds: float, tracer=None) -> tuple[list[Call], int]:
    """Run whole blocks until ``seconds`` have passed; returns calls, blocks.

    The reference kernel is timed after every call and once before the
    first, so each call has a kernel time on either side.
    """
    calls: list[Call] = []
    nblocks = len(pool.ops) // pool.block
    speed.time_kernel()    # warm-up, not used
    ref = speed.time_kernel()
    t_start = perf_counter()
    k = 0
    while True:
        b = k % nblocks
        for i, op in enumerate(pool.ops[b * pool.block:(b + 1) * pool.block]):
            # traced runs: untraced and traced in alternating order, so
            # neither always runs first
            order = (None,) if tracer is None else (
                (True, False) if (k + i) % 2 else (False, True))
            for traced in order:
                if traced:
                    tracer.op += 1
                    tracer.install()
                    try:
                        call = run_call(cli, op, traced=True)
                    finally:
                        tracer.uninstall()
                else:
                    call = run_call(cli, op)
                call.ref_before, call.ref_after = ref, speed.time_kernel()
                ref = call.ref_after
                calls.append(call)
        k += 1
        if perf_counter() - t_start >= seconds:
            return calls, k


def gate_calls(calls: list[Call], workloads) -> dict:
    """Gate every call; the reference digest is checked where one is recorded."""
    reference = gate.load_reference()
    failures = []
    checked_ref = missing_ref = 0
    keys: dict[int, str] = {}
    for i, c in enumerate(calls):
        verb = c.op.argv[0]
        try:
            if c.error is not None:
                raise gate.GateError("raised: " + c.error.strip().splitlines()[-1])
            dec = gate.check(verb, c.rc, c.stdout, c.op.graph_doc, c.op.expect)
            key = keys.get(id(c.op))
            if key is None:
                key = keys[id(c.op)] = gate.digest(workloads.input_key(c.op))
            want = reference.get(key)
            if want is None:
                missing_ref += 1
            else:
                checked_ref += 1
                if gate.digest(dec) != want:
                    raise gate.GateError("decision fields differ from reference.json")
        except (gate.GateError, KeyError, TypeError, ValueError) as e:
            failures.append({"call": i, "label": c.op.label,
                             "argv": c.op.resolved_argv(), "why": f"{type(e).__name__}: {e}"})
    return {"failures": failures, "reference_checked": checked_ref,
            "reference_missing": missing_ref}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    s = sorted(latencies)
    n = len(s)
    beyond = min(TAIL_BEYOND, n - 1)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(calls: list[Call], setup_samples: list[tuple[float, float]]
               ) -> tuple[dict, dict]:
    """End-to-end metrics; times are at nominal machine speed (speed.py).

    ``setup_samples`` holds (at nominal speed, as timed) per set-up.
    """
    lat = [c.scaled() for c in calls]
    label = {t: c.op.label for c, t in zip(calls, lat)}
    t_val, t_pct = tail(lat)
    by_class: dict[str, list[float]] = {}
    for c, t in zip(calls, lat):
        by_class.setdefault(c.op.label, []).append(t)
    raw = [c.seconds for c in calls]
    refs = [calls[0].ref_before] + [c.ref_after for c in calls]
    metrics = {
        "verdicts_per_s": sum(c.op.verdicts for c in calls) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * t_val,
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    repeats = Counter(id(c.op) for c in calls)
    detail = {
        "samples": len(lat),
        "inputs": len(repeats),
        "calls_per_input": {"min": min(repeats.values()),
                            "median": statistics.median(repeats.values()),
                            "max": max(repeats.values())},
        "latency_tail_percentile": t_pct,
        "latency_tail_class": label[t_val],
        "latency_p50_class": label[statistics.median_low(lat)],
        "reference_kernel_s": {"nominal": speed.NOMINAL_S,
                               "min": min(refs), "median": statistics.median(refs),
                               "max": max(refs)},
        "as_timed": {"verdicts_per_s": sum(c.op.verdicts for c in calls) / sum(raw),
                     "latency_p50_ms": 1000.0 * statistics.median(raw),
                     "latency_tail_ms": 1000.0 * tail(raw)[0],
                     "setup_s": statistics.median(w for _, w in setup_samples)},
        "setup_samples_s": [s for s, _ in setup_samples],
        "by_class": {k: {"samples": len(v), "median_ms": 1000.0 * statistics.median(v)}
                     for k, v in sorted(by_class.items())},
    }
    return metrics, detail


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((SRC / "coinrig").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "git_commit": git_commit(), "source_sha256": src.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter, so the import is counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["as_timed_s"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the harness self-test")
    ap.add_argument("--results-dir", type=Path, default=ROOT / ".bench_results")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on the path; refuse any other coinrig."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coinrig
    if Path(coinrig.__file__).resolve().parent != SRC / "coinrig":
        raise SystemExit(f"error: imported coinrig from {coinrig.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coinrig" / "__init__.py").is_file():
        print(f"error: no coinrig sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        setup_samples = []   # (at nominal speed, as timed)
        if not args.setup_probe and not args.trace:
            setup_samples = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        cli, workloads, pool, warm, setup_wall, setup_s = set_up(
            args.workload, args.seed, args.scale, workdir)
        setup_samples.append((setup_s, setup_wall))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "as_timed_s": setup_wall}))
            return 0
        tracer = None
        if args.trace:
            tracer = importlib.import_module("spans").Tracer()
        t0 = time.time()
        calls, blocks = measure(cli, pool, args.seconds, tracer)
        wall = time.time() - t0
        gated = gate_calls([warm] + calls, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = 1 + len(calls)
    failed = len({f["call"] for f in gated["failures"]})
    untraced = [c for c in calls if not c.traced]
    e2e, detail = end_to_end(untraced, setup_samples)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale,
        "load": "closed loop, one client, calls in sequence in one process",
        "machine": machine_info(),
        "started_unix": t0, "measured_wall_s": wall, "blocks": blocks,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        **gated,
        "end_to_end": e2e, **detail,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        traced = [c for c in calls if c.traced]
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_frac"] = (sum(c.seconds for c in traced)
                                         / sum(c.seconds for c in untraced) - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["spans"] = tracer.span_table()
        record["counts"] = tracer.counts
        record["span_log"] = {"fields": ["op", "name", "start", "end", "parent"],
                              "spans": tracer.log}
    record["metrics"] = metrics
    args.results_dir.mkdir(parents=True, exist_ok=True)
    out = args.results_dir / (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
                              f"{int(t0)}_{os.getpid()}.json")
    out.write_text(json.dumps(record, indent=1))

    for f in gated["failures"][:5]:
        print(f"FAILED {f['label']}: {f['why']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} calls={len(calls)} blocks={blocks} "
          f"tail=p{detail['latency_tail_percentile']:.1f} ({detail['latency_tail_class']}) "
          f"p50 class={detail['latency_p50_class']} result={out}")
    for k, v in metrics.items():
        print(f"# {k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
