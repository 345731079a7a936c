"""The traced benchmark runs end to end on every workload it declares.

One traced pass per workload reaches every function in `tracing.TARGETS`
and every result field that `run.per_layer` reads, so a renamed function or
field fails here rather than in a full benchmark run. It does not reach the
limits that only long runs meet, such as the sample count of
`run.median_interval`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "ipdbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
