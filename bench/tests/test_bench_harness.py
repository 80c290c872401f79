"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_command_prints_every_metric(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace), "--scale", "smoke",
         "--results-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in last["metrics"].items()}
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1
    if trace:
        assert record["spans"]["cli.main"]["calls"] >= 1


def test_same_seed_same_inputs():
    run.import_program()
    import workloads
    for name in run.WORKLOADS:
        a = workloads.make_pool(name, 5, "smoke")
        b = workloads.make_pool(name, 5, "smoke")
        c = workloads.make_pool(name, 6, "smoke")
        assert [workloads.input_key(op) for op in a.ops] == \
            [workloads.input_key(op) for op in b.ops]
        assert [workloads.input_key(op) for op in a.ops] != \
            [workloads.input_key(op) for op in c.ops]


def test_tracer_restores_originals():
    run.import_program()
    import spans
    from coinrig import cli, linalg, pebble
    before = (linalg.rank_exact, cli.generic_rank, pebble.PebbleGame.try_insert)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.generic_rank is not before[1]
        assert cli.generic_rank is linalg.generic_rank
    finally:
        tracer.uninstall()
    assert (linalg.rank_exact, cli.generic_rank, pebble.PebbleGame.try_insert) == before


GRAPH = json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                    "T": [0, 1]})


def _violation(**change):
    v = {"kind": "set", "S": ["0", "1"], "witness": ["0", "1"], "lhs": 1, "rhs": 0}
    v.update(change)
    return json.dumps({"sparse": False, "strong": True, "T": [0, 1], "violation": v})


def test_gate_recounts_witnesses():
    gate.check("sparse", 0, _violation(), GRAPH, {"sparse": False})
    with pytest.raises(gate.GateError, match="report says"):
        gate.check("sparse", 0, _violation(lhs=2), GRAPH, {"sparse": False})
    with pytest.raises(gate.GateError, match="does not exceed"):
        gate.check("sparse", 0, _violation(witness=["0", "1", "2"], lhs=3, rhs=3),
                   GRAPH, {"sparse": False})
    with pytest.raises(gate.GateError, match="exit code"):
        gate.check("sparse", 1, _violation(), GRAPH, {"sparse": False})
    dual = {"S": ["0", "1"], "family": [], "xsets": [["0", "1", "2", "3"]]}
    mrank = {"T": [0, 1], "mt": {"rank": 5, "base": [["0", "2"], ["0", "3"], ["1", "2"],
                                                      ["1", "3"], ["2", "3"]],
                                 "conjectural": False, "dual": dual}}
    gate.check("mrank", 0, json.dumps(mrank), GRAPH, {})
    dual["xsets"] = [["0", "2", "3"], ["1", "2", "3"]]
    with pytest.raises(gate.GateError, match="T.1"):
        gate.check("mrank", 0, json.dumps(mrank), GRAPH, {})


def _result(seed, value, start):
    return {"workload": "w", "seed": seed, "trace": 0, "attempted": 10, "failed": 0,
            "started_unix": start, "metrics": {"latency_p50_ms": {"value": value}}}


def test_compare_verdicts():
    spec = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]}
    parent = [_result(s, 100.0 + s % 3, s) for s in range(10)]
    faster = [_result(s, 80.0 + s % 3, 100 + s) for s in range(10)]
    slower = [_result(s, 120.0 + s % 3, 100 + s) for s in range(10)]
    same = [_result(s, 100.0 + (s + 1) % 3, 100 + s) for s in range(10)]
    assert compare.compare(parent, faster, spec)[1].endswith("won 10/10  improved")
    assert compare.compare(parent, slower, spec)[1].endswith("worse")
    assert compare.compare(parent, same, spec)[1].endswith("unchanged")


def test_call_times_scale_to_nominal_speed():
    assert speed.kernel() == 26
    nominal = speed.NOMINAL_S
    # a call timed while the kernel ran at half speed counts half its time
    call = run.Call(None, 0.5, 0, "", None, ref_before=2 * nominal, ref_after=2 * nominal)
    assert call.scaled() == pytest.approx(0.25)
    assert speed.scaled(0.3, nominal, 3 * nominal) == pytest.approx(0.15)
