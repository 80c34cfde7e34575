"""The program side of the benchmark: one fresh interpreter per use.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and every ``REPRO_*`` variable cleared.  Modes:

``setup W``
    Import what workload ``W`` needs, print ``READY``, exit.
``run W``
    Set up, print ``READY``, run the timed phase (until ``--seconds``
    have passed, or exactly ``--iterations`` iterations), then check the
    outputs outside the timed window; the last stdout line is a JSON
    report.  ``--trace-dir`` wraps the layers first (``layers.py``).
``serve``
    The traced service: wrap the layers, then run ``repro serve``'s
    ``serve()`` until SIGTERM and write the spans.
``check-service``
    Check the result documents the service returned.
``pin``
    Re-pin the known-answer outputs in ``pins/`` (after a reviewed
    change of the program's behaviour).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins"

#: Known-answer fig7 size: small enough to re-run on every benchmark run.
PIN_FIG7_REQUESTS = 2000
RTOL, ATOL = 1e-9, 1e-12
#: Largest gap allowed between a measured mean cutoff and the analytic one.
CUTOFF_SLACK = 0.05


def _ready() -> None:
    print("READY", flush=True)


# ---------------------------------------------------------------------------
# fig7
# ---------------------------------------------------------------------------

def setup_fig7():
    import repro.cli  # noqa: F401  (the CLI's cold start is part of set-up)
    from repro.experiments.config import FAST
    from repro.experiments.figures import fig7_cutoff_utilizations

    return FAST, fig7_cutoff_utilizations


def fig7_config(base, seed: int, requests: int | None = None):
    kw = {"seed": seed, "workers": inputs.WORKERS["fig7"]}
    if requests is not None:
        kw["requests_per_site"] = requests
    return dataclasses.replace(base, **kw)


def fig7_problems(result) -> list[str]:
    """Shape checks that hold for every seed at the benchmark's size."""
    out = []
    if len(result.rtts_ms) != inputs.FIG7_PLACEMENTS:
        out.append(f"fig7: {len(result.rtts_ms)} placements, expected {inputs.FIG7_PLACEMENTS}")
    for rtt, mean, tail, pred in zip(result.rtts_ms, result.mean_cutoff,
                                     result.tail_cutoff, result.predicted_cutoff):
        if mean is None or tail is None:
            out.append(f"fig7: placement {rtt} ms has no mean or p95 cutoff")
        elif abs(mean - pred) > CUTOFF_SLACK:
            out.append(f"fig7: placement {rtt} ms mean cutoff {mean:.4f} is more "
                       f"than {CUTOFF_SLACK} from predicted {pred:.4f}")
    means = [m for m in result.mean_cutoff if m is not None]
    if any(b <= a for a, b in zip(means, means[1:])):
        out.append(f"fig7: mean cutoffs do not rise with RTT: {means}")
    return out


def fig7_pin_document(result) -> dict:
    return {
        "seed": inputs.DEFAULT_SEED,
        "requests_per_site": PIN_FIG7_REQUESTS,
        "rtts_ms": list(result.rtts_ms),
        "mean_cutoff": list(result.mean_cutoff),
        "tail_cutoff": list(result.tail_cutoff),
        "predicted_cutoff": list(result.predicted_cutoff),
    }


def compare_fig7_pins(actual: dict, pinned: dict) -> list[str]:
    """Drifts of a known-answer fig7 document from its pinned values."""
    out = []
    for key in ("rtts_ms", "mean_cutoff", "tail_cutoff", "predicted_cutoff"):
        want, have = pinned[key], actual[key]
        if len(want) != len(have):
            out.append(f"fig7 pin {key}: {len(have)} values, pinned {len(want)}")
            continue
        for i, (w, h) in enumerate(zip(want, have)):
            if (w is None) != (h is None) or (
                    w is not None and not math.isclose(h, w, rel_tol=RTOL, abs_tol=ATOL)):
                out.append(f"fig7 pin {key}[{i}]: {h!r}, pinned {w!r}")
    return out


def run_fig7(args, report: dict) -> None:
    base, fig7 = setup_fig7()
    from repro.core.scenarios import PAPER_SCENARIOS

    def config(seed):
        return fig7_config(base, seed, args.fig7_requests)

    per_figure = (inputs.FIG7_POINTS * 2 * config(0).requests_per_site
                  * sum(s.sites for s in PAPER_SCENARIOS))
    _ready()
    results = []
    for i in _timed_iterations(args, report):
        results.append(fig7(config(inputs.iteration_seed(args.seed, i))))
        report["iter_req"].append(per_figure)
    report["attempted"] = report["iterations"] * inputs.FIG7_PLACEMENTS * inputs.FIG7_POINTS
    report["failed"] = 0
    if args.no_check:
        return
    if args.fig7_requests is None:
        for result in results:
            report["problems"] += fig7_problems(result)
    known = fig7(fig7_config(base, inputs.DEFAULT_SEED, PIN_FIG7_REQUESTS))
    pinned = json.loads((PINS / "fig7.json").read_text(encoding="utf-8"))
    report["problems"] += compare_fig7_pins(fig7_pin_document(known), pinned)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def campaign_problems(result) -> list[str]:
    return [f"campaign {result.campaign} seed {result.seed}: {q.name} quarantined "
            f"({q.reason}: {q.detail})" for q in result.quarantined]


def simulated_requests(result) -> int:
    """Post-warmup requests counted in a campaign's results."""
    return int(sum(run.metrics["edge_count"] + run.metrics["cloud_count"]
                   for run in result.runs.values()))


def golden_problems(result, expected: dict | None = None) -> list[str]:
    """Drifts of a default-seed campaign from its pinned summary."""
    from repro.campaign import GoldenTolerance, diff_golden, load_golden

    if expected is None:
        expected = load_golden(PINS / "campaign.json")
    drifts = diff_golden(result, expected, GoldenTolerance(rtol=RTOL, atol=ATOL))
    return [f"campaign pin: {d.render()}" for d in drifts]


def run_campaign_workload(args, report: dict) -> None:
    from repro.campaign import compile_campaign, run_campaign

    workers = inputs.WORKERS["campaign"]
    spec = setup_campaign(args.seed)
    _ready()
    report.update(attempted=0, failed=0)
    for i in _timed_iterations(args, report):
        if i:
            spec = compile_campaign(
                inputs.campaign_document(inputs.iteration_seed(args.seed, i)))
        result = run_campaign(spec, workers=workers)
        report["iter_req"].append(simulated_requests(result))
        report["attempted"] += len(spec.scenarios)
        report["failed"] += len(result.quarantined)
        report["problems"] += campaign_problems(result)
    if args.no_check:
        return
    known = run_campaign(compile_campaign(inputs.campaign_document(inputs.DEFAULT_SEED)),
                         workers=workers)
    report["problems"] += campaign_problems(known) + golden_problems(known)


def setup_campaign(seed: int):
    """Import the campaign layer and compile the first iteration's document."""
    from repro.campaign import compile_campaign

    return compile_campaign(inputs.campaign_document(inputs.iteration_seed(seed, 0)))


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

def serve_traced(args) -> int:
    import layers

    tracer = layers.install(args.trace_dir)
    from repro.service.http import serve

    try:
        return serve("127.0.0.1", 0, state_dir=args.state_dir,
                     workers=inputs.WORKERS["service"],
                     telemetry_window=inputs.TELEMETRY_WINDOW, verbose=True)
    finally:
        tracer.finish()


def check_service(args) -> dict:
    """Reload every result through the wire schema (re-verifying its
    fingerprint), and compare the first job with a direct campaign run."""
    from repro.campaign import compile_campaign, run_campaign
    from repro.experiments import schema as wire

    problems = []
    docs = json.loads(Path(args.results).read_text(encoding="utf-8"))
    results = []
    for i, doc in enumerate(docs):
        try:
            results.append(wire.load_campaign_result(doc))
        except wire.WireFormatError as exc:
            problems.append(f"service job {i}: result does not reload: {exc}")
    for result in results:
        problems += campaign_problems(result)
    first = compile_campaign(inputs.service_document(args.seed, 0))
    direct = run_campaign(first, workers=inputs.WORKERS["service"])
    if not results or results[0].fingerprint() != direct.fingerprint():
        problems.append("service job 0: fingerprint differs from a direct run_campaign")
    report = {"problems": problems,
              "requests": sum(simulated_requests(r) for r in results)}
    if args.telemetry_ratio:
        report["telemetry_ratio"] = telemetry_ratio(first.scenarios[0])
    return report


def telemetry_ratio(scenario, repeats: int = 5) -> float:
    """Median DES seconds of one scenario with telemetry on ÷ off."""
    from repro import obs
    from repro.campaign import run_scenario
    from repro.sim.engine import Simulation

    def des_seconds(factory) -> float:
        spent = []
        original = Simulation.run

        def timed(self, *a, **kw):
            t0 = time.perf_counter()
            try:
                return original(self, *a, **kw)
            finally:
                spent.append(time.perf_counter() - t0)

        Simulation.run = timed
        try:
            if factory is None:
                run_scenario(scenario)
            else:
                with obs.installed(factory):
                    run_scenario(scenario)
        finally:
            Simulation.run = original
        return sum(spent)

    def telemetry():
        return obs.Telemetry(window=inputs.TELEMETRY_WINDOW, exporters=[obs.InMemoryExporter()])

    off = statistics.median(des_seconds(None) for _ in range(repeats))
    on = statistics.median(des_seconds(telemetry) for _ in range(repeats))
    return on / off


# ---------------------------------------------------------------------------
# shared
# ---------------------------------------------------------------------------

def write_pins() -> None:
    from repro.campaign import compile_campaign, run_campaign, write_golden

    base, fig7 = setup_fig7()
    known = fig7(fig7_config(base, inputs.DEFAULT_SEED, PIN_FIG7_REQUESTS))
    (PINS / "fig7.json").write_text(
        json.dumps(fig7_pin_document(known), indent=2) + "\n", encoding="utf-8")
    result = run_campaign(compile_campaign(inputs.campaign_document(inputs.DEFAULT_SEED)),
                          workers=inputs.WORKERS["campaign"])
    write_golden(result, PINS / "campaign.json")


def _timed_iterations(args, report: dict):
    """Yield iteration indices until the run phase is over, timing each
    iteration's loop body into ``report["iter_s"]``.

    The phase ends once less than half a typical iteration of
    ``--seconds`` is left, so that it lasts ``--seconds`` on average
    rather than overshooting by up to a whole iteration."""
    report["iter_s"] = []
    report["iter_req"] = []
    i = 0
    while True:
        t0 = time.perf_counter()
        yield i
        report["iter_s"].append(time.perf_counter() - t0)
        i += 1
        if args.iterations is not None:
            if i >= args.iterations:
                break
        elif sum(report["iter_s"]) + statistics.median(report["iter_s"]) / 2 >= args.seconds:
            break
    report["iterations"] = i
    report["run_s"] = sum(report["iter_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "serve", "check-service", "pin"])
    parser.add_argument("--workload", choices=["fig7", "campaign"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--fig7-requests", type=int, default=None)
    parser.add_argument("--state-dir", default=None)
    parser.add_argument("--results", default=None)
    parser.add_argument("--telemetry-ratio", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "serve":
        return serve_traced(args)
    if args.mode == "pin":
        write_pins()
        return 0
    if args.mode == "check-service":
        print(json.dumps(check_service(args)))
        return 0
    if args.mode == "setup":
        if args.workload == "fig7":
            setup_fig7()
        else:
            setup_campaign(args.seed)
        _ready()
        return 0

    tracer = None
    if args.trace_dir is not None:
        import layers

        tracer = layers.install(args.trace_dir)
    report: dict = {"problems": []}
    if args.workload == "fig7":
        run_fig7(args, report)
    else:
        run_campaign_workload(args, report)
    if tracer is not None:
        tracer.finish()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
