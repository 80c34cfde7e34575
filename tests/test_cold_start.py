"""Cold-start guard: the entry points and analytic solvers load no scipy.

scipy was most of the CLI's start-up time and ~60 MB of every process's
memory while the code used it in six places.  The root finder is now
:mod:`repro.queueing.roots` and the t-quantile loads ``scipy.special``
only inside :func:`repro.stats.ci.batch_means_ci` and
``ReplicationSummary.half_width``.  The simulator imports
:mod:`repro.analysis.invariants`, which must not drag in the static
analyzer.  Each check runs in a fresh interpreter, where ``sys.modules``
starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import repro.cli, repro.experiments.figures, repro.campaign, repro.service.http, repro.api
from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import PAPER_SCENARIOS
from repro.core.tail import cutoff_utilization_tail
from repro.queueing.mmk import MMk

for s in PAPER_SCENARIOS:
    EdgeCloudComparator(s).predict_cutoff_utilization()
cutoff_utilization_tail(0.01, 13.0, 1, 10)
MMk(100.0, 13.0, 10).response_time_percentile(0.95)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def modules() -> set[str]:
    """``sys.modules`` of a fresh interpreter after the probe ran."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_entry_points_and_solvers_load_no_scipy(modules):
    assert "repro.cli" in modules
    scipy = sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))
    assert scipy == []


def test_simulator_does_not_load_the_static_analyzer(modules):
    assert "repro.analysis.invariants" in modules
    assert "repro.analysis.cache" not in modules
    assert "repro.analysis.callgraph" not in modules
