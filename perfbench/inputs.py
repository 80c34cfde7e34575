"""Seeded inputs of the three benchmark workloads.

Everything the program under test receives is generated here from the
benchmark's ``--seed``: figure seeds for ``fig7``, the campaign document
of each ``campaign`` iteration, and the campaign documents the
``service`` client submits.  Standard library only, so the load
generator can build service documents without importing the program.
"""

from __future__ import annotations

import hashlib

#: Seed the program's own experiments default to; the known-answer
#: checks pin outputs at this seed.
DEFAULT_SEED = 2021

#: Worker processes each workload runs with (passed explicitly; the
#: ``REPRO_*`` environment is cleared for every child interpreter).
WORKERS = {"fig7": 1, "campaign": 2, "service": 1}

#: fig7 shape: the paper's four cloud placements, each swept over 13
#: utilizations with an edge and a cloud simulation per point.
FIG7_PLACEMENTS = 4
FIG7_POINTS = 13

#: Service telemetry window, virtual seconds (``repro serve --telemetry-window``).
TELEMETRY_WINDOW = 5.0

#: Jobs one server runs before the service workload starts a fresh one.
#: The server keeps every job's history, so a job's latency depends on
#: how many came before it; a fixed count per server keeps that equal
#: across runs of any length.  A run repeats such rounds until the jobs
#: have taken ``--seconds``.
SERVICE_ROUND_JOBS = 50

_RTTS = ["nearby", "typical", "distant", "transcontinental"]


def iteration_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th iteration of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def campaign_document(seed: int) -> dict:
    """The 32-scenario campaign: RTT × utilization × arrival, 3 sites."""
    return {
        "campaign": "perfbench-campaign",
        "seed": seed,
        "defaults": {"duration": 150.0, "sites": 3, "machines_per_site": 1},
        "matrix": [
            {
                "name": "grid",
                "axes": {
                    "rtt": list(_RTTS),
                    "utilization": [0.3, 0.5, 0.7, 0.85],
                    "arrival": ["poisson", "bursty"],
                },
            }
        ],
        "budgets": {"timeout": 120.0, "max_events": 2_000_000, "retries": 1},
    }


def service_document(seed: int, job: int) -> dict:
    """One small service job: three placements at 60% load, ~3.3k requests."""
    return {
        "campaign": f"perfbench-job-{job}",
        "seed": iteration_seed(seed, job),
        "defaults": {"duration": 24.0, "sites": 3, "machines_per_site": 1,
                     "utilization": 0.6},
        "matrix": [{"name": "job", "axes": {"rtt": _RTTS[:3]}}],
        "budgets": {"timeout": 120.0, "max_events": 2_000_000, "retries": 1},
    }
