"""A campaign task imports nothing the parent has not already imported.

The supervised executor runs every campaign scenario in a fresh forked
process.  A module imported lazily inside a task is therefore imported
again by every task, and that showed up as a ~10% throughput loss at two
workers (``numpy.ma``, pulled in by ``np.quantile``).  A ``workers=1`` run
executes the same task code in-process, so any module it adds to
``sys.modules`` is one each forked task would pay for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBE = """
import json, sys
import repro.campaign
from repro.campaign import compile_campaign, run_campaign

spec = compile_campaign({
    "campaign": "hygiene",
    "seed": 5,
    "defaults": {"duration": 4.0, "sites": 1},
    "scenarios": [{"name": "s0", "utilization": 0.5}],
    "budgets": {"retries": 0},
})
before = set(sys.modules)
result = run_campaign(spec, workers=1)
assert result.ok, result.quarantined
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_campaign_run_imports_no_new_module():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
