"""Every demo script runs to completion against the library in ``src``,
and prints the same bytes each time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_demos_found():
    assert len(DEMOS) >= 5
