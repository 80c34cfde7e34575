"""Self-tests of the benchmark.

Run from the root of a checkout (about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))


def test_every_name_is_well_formed():
    groups = ("workloads", "end_to_end", "per_layer")
    names = [m["name"] for group in groups for m in BENCHMARK[group]]
    assert names and all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    for group in groups:
        group_names = [m["name"] for m in BENCHMARK[group]]
        assert len(group_names) == len(set(group_names))


def test_layer_map_covers_every_metric_and_workload():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(LAYER_MAP["per_layer"]) == per_layer
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(LAYER_MAP["workloads"]) == workloads
    assert set(LAYER_MAP["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for row in LAYER_MAP["per_layer"].values():
        assert set(row["on"]) <= workloads and set(row["not_on"]) <= workloads


def _result(*lines: str) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = _result(*out.stdout.strip().splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert f"{workload}/{name} " in out.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fig7_pins_catch_a_perturbed_value():
    pinned = json.loads((child.PINS / "fig7.json").read_text(encoding="utf-8"))
    assert child.compare_fig7_pins(pinned, pinned) == []
    perturbed = copy.deepcopy(pinned)
    perturbed["mean_cutoff"][2] *= 1 + 1e-7
    assert child.compare_fig7_pins(pinned, perturbed)


def test_campaign_pins_catch_a_perturbed_value():
    from repro.campaign import CampaignResult, ScenarioRun, load_golden

    expected = load_golden(child.PINS / "campaign.json")
    result = CampaignResult(
        campaign=expected["campaign"], seed=inputs.DEFAULT_SEED, digest="",
        runs={name: ScenarioRun(name=name, seed=int(entry["seed"]), metrics=entry["metrics"])
              for name, entry in expected["scenarios"].items()},
    )
    assert child.golden_problems(result, expected) == []
    perturbed = copy.deepcopy(expected)
    name = sorted(perturbed["scenarios"])[0]
    perturbed["scenarios"][name]["metrics"]["edge_p95_ms"] *= 1 + 1e-7
    assert child.golden_problems(result, perturbed)


def test_fig7_shape_checks_catch_a_falling_cutoff():
    from repro.experiments.figures import Fig7Result

    good = Fig7Result(rtts_ms=(15.0, 24.0, 54.0, 80.0), mean_cutoff=(0.56, 0.62, 0.71, 0.76),
                      tail_cutoff=(0.52, 0.57, 0.64, 0.69),
                      predicted_cutoff=(0.58, 0.63, 0.72, 0.77))
    assert child.fig7_problems(good) == []
    falling = Fig7Result(rtts_ms=good.rtts_ms, mean_cutoff=(0.56, 0.62, 0.61, 0.76),
                         tail_cutoff=good.tail_cutoff, predicted_cutoff=good.predicted_cutoff)
    assert child.fig7_problems(falling)
    missing = Fig7Result(rtts_ms=good.rtts_ms, mean_cutoff=good.mean_cutoff,
                         tail_cutoff=(0.52, None, 0.64, 0.69),
                         predicted_cutoff=good.predicted_cutoff)
    assert child.fig7_problems(missing)


def test_inputs_depend_only_on_the_seed():
    assert inputs.campaign_document(5) == inputs.campaign_document(5)
    assert inputs.service_document(3, 1) == inputs.service_document(3, 1)
    assert inputs.service_document(3, 1) != inputs.service_document(4, 1)
    assert inputs.iteration_seed(1, 0) != inputs.iteration_seed(1, 1)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig7", "--seed",
                          "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
