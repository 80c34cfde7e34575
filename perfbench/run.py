"""Benchmark command: end-to-end metrics, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7|campaign|service \\
        --seed N --seconds S --trace 0|1

Every program run happens in a fresh interpreter (``child.py`` or
``repro serve``) with ``PYTHONPATH=src``, the ``REPRO_*`` variables
cleared and the worker count passed explicitly.  This process is the
load generator: it starts those interpreters, drives the service over
HTTP, and never imports the program.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced with the same
inputs, and prints the per-layer metrics (see ``layer_map.json``).
Each metric is printed as ``workload/metric value unit``; the last
line is one JSON object.  The exit code is 1 when an output check
fails, 2 when the program cannot be run at all.  ``--smoke`` shrinks
every size so that the self-tests (``test_perfbench.py``) run fast.
"""

from __future__ import annotations

import argparse
import heapq
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("fig7", "campaign", "service")

#: Fresh interpreters started to time set-up; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Fresh interpreters whose import times the traced run takes the median of.
IMPORT_SAMPLES = 3

#: The program's subpackages, each its own ``import.repro.<name>_s`` row.
SUBPACKAGES = ("analysis", "campaign", "core", "experiments", "mitigation", "obs",
               "parallel", "queueing", "service", "sim", "stats", "workload")

#: fig7 size of a ``--smoke`` run (the self-tests): every metric, little time.
SMOKE_FIG7_REQUESTS = 2000

#: Longest any one child interpreter may take before it is killed.
CHILD_TIMEOUT = 150.0


class BenchmarkError(RuntimeError):
    """The program could not be run or driven; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def job_tail(latencies: list[float]) -> float:
    """``job_p90_s``: the 90th percentile once at least ten jobs lie beyond
    it (100 jobs or more).  A shorter run has no percentile above the
    median with ten jobs beyond it, so it reports the median."""
    return percentile(latencies, 0.9 if len(latencies) >= 100 else 0.5)


def ref_loop_seconds(n: int = 1_000_000) -> float:
    """A fixed pure-Python heap loop: a host-speed diagnostic only."""
    rng = random.Random(12345)
    heap: list[float] = []
    t0 = time.perf_counter()
    for _ in range(n):
        heapq.heappush(heap, rng.random())
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per package from ``python -X importtime`` output."""
    rows = {"import.repro.cli_total_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0,
            "import.repro_s": 0.0}
    rows.update({f"import.repro.{p}_s": 0.0 for p in SUBPACKAGES})
    for line in text.splitlines():
        match = re.match(r"import time:\s*(\d+) \|\s*(\d+) \| (\s*)(\S+)$", line)
        if match is None:
            continue
        self_us, cumulative_us, indent, module = match.groups()
        parts = module.split(".")
        if module == "repro.cli" and not indent:
            rows["import.repro.cli_total_s"] = int(cumulative_us) / 1e6
        if parts[0] in ("numpy", "scipy"):
            key = f"import.{parts[0]}_s"
        elif parts[0] == "repro":
            key = (f"import.repro.{parts[1]}_s" if len(parts) > 1 and parts[1] in SUBPACKAGES
                   else "import.repro_s")
        else:
            continue
        rows[key] += int(self_us) / 1e6
    return rows


class Bench:
    """One benchmark invocation: paths, environment, child processes."""

    def __init__(self, root: Path, seed: int, seconds: float, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.setup_samples = 1 if smoke else SETUP_SAMPLES
        self.import_samples = 1 if smoke else IMPORT_SAMPLES
        self.jobs = 2 if smoke else inputs.SERVICE_ROUND_JOBS
        self.src = root / "src"
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(self.src)
        self.problems: list[str] = []

    # -- child interpreters ------------------------------------------------

    def _child_cmd(self, *args: str) -> list[str]:
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        if self.smoke and args[0] == "run":
            cmd += ["--fig7-requests", str(SMOKE_FIG7_REQUESTS)]
        return cmd

    def spawn(self, cmd: list[str], **kw) -> subprocess.Popen:
        return subprocess.Popen(cmd, cwd=self.root, env=self.env, **kw)

    @staticmethod
    def reap(proc: subprocess.Popen) -> float:
        """Wait for ``proc``; return its peak RSS (MB, incl. reaped children)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def _watchdog(self, proc: subprocess.Popen) -> threading.Timer:
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.daemon = True
        timer.start()
        return timer

    def child(self, *args: str) -> tuple[float, str, float]:
        """Run ``child.py``: (seconds until it printed READY, the rest of
        its stdout, its peak RSS in MB)."""
        t0 = time.perf_counter()
        proc = self.spawn(self._child_cmd(*args), stdout=subprocess.PIPE, text=True)
        timer = self._watchdog(proc)
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.stdout.close()
            rss = self.reap(proc)
        finally:
            timer.cancel()
        if first.strip() != "READY" or proc.returncode != 0:
            raise BenchmarkError(f"child {' '.join(args)} failed (exit {proc.returncode})")
        return ready, rest, rss

    def run_child(self, *args: str) -> tuple[float, dict, float]:
        """Run ``child.py run ...``: (set-up seconds, report, peak RSS MB)."""
        setup, rest, rss = self.child("run", *args)
        return setup, json.loads(rest.strip().splitlines()[-1]), rss

    def setup_once(self, workload: str) -> float:
        return self.child("setup", "--workload", workload, "--seed", str(self.seed))[0]

    def import_metrics(self) -> dict[str, float]:
        """Import seconds per package, from ``-X importtime`` self times.

        ``import.repro.cli_total_s`` is the whole cold import of the CLI;
        every other row is the self time of one package's modules, so the
        rows add up to what importing everything costs.
        """
        code = "import repro.cli\n" + "".join(f"import repro.{p}\n" for p in SUBPACKAGES)
        samples: list[dict[str, float]] = []
        for _ in range(self.import_samples):
            out = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                                 cwd=self.root, env=self.env, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT, check=True)
            samples.append(parse_importtime(out.stderr))
        return {key: median(s.get(key, 0.0) for s in samples) for key in samples[0]}

    # -- fig7 and campaign -----------------------------------------------

    def measure_batch(self, workload: str) -> dict:
        """End-to-end metrics of ``fig7`` or ``campaign``."""
        setups = [self.setup_once(workload) for _ in range(self.setup_samples - 1)]
        setup, report, rss = self.run_child(
            "--workload", workload, "--seed", str(self.seed), "--seconds", str(self.seconds))
        setups.append(setup)
        self.problems += report["problems"]
        return {
            "metrics": {
                "setup_s": median(setups),
                "sim_req_per_s": median(r / s for r, s in zip(report["iter_req"],
                                                               report["iter_s"])),
                "job_p50_s": percentile(report["iter_s"], 0.5),
                "job_p90_s": job_tail(report["iter_s"]),
                "peak_rss_mb": rss,
            },
            "attempted": report["attempted"],
            "failed": report["failed"],
        }

    def trace_batch(self, workload: str) -> dict:
        """Per-layer metrics of ``fig7`` or ``campaign``."""
        args = ["--workload", workload, "--seed", str(self.seed)]
        _, plain, _ = self.run_child(*args, "--seconds", str(self.seconds / 2))
        self.problems += plain["problems"]
        trace_dir = self.tmp / "trace"
        _, traced, _ = self.run_child(*args, "--iterations", str(plain["iterations"]),
                                      "--trace-dir", str(trace_dir), "--no-check")
        metrics = layers.layer_metrics(layers.load_spans(trace_dir), traced["iterations"])
        if workload == "fig7":
            calls = metrics["core.measure_point.calls"]
            if calls != inputs.FIG7_PLACEMENTS * inputs.FIG7_POINTS:
                self.problems.append(f"fig7: {calls} sweep points per figure, expected "
                                     f"{inputs.FIG7_PLACEMENTS * inputs.FIG7_POINTS}")
        metrics["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
        return {"metrics": metrics, "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"]}

    # -- service ------------------------------------------------------------

    def start_server(self, state_dir: Path, trace_dir: Path | None = None):
        """Start the service; return (process, port, seconds until healthy)."""
        log = self.tmp / f"server-{time.monotonic_ns()}.log"
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--state-dir", str(state_dir),
                   "--telemetry-window", str(inputs.TELEMETRY_WINDOW),
                   "--workers", str(inputs.WORKERS["service"])]
        else:
            cmd = self._child_cmd("serve", "--state-dir", str(state_dir),
                                  "--trace-dir", str(trace_dir))
        t0 = time.perf_counter()
        with open(log, "w", encoding="utf-8") as err:
            proc = self.spawn(cmd, stdout=subprocess.DEVNULL, stderr=err)
        deadline = t0 + 60.0
        port = None
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise BenchmarkError(f"server exited with {proc.returncode}: "
                                     f"{log.read_text(encoding='utf-8')[-2000:]}")
            if port is None:
                match = re.search(r"listening on http://[^:]+:(\d+)",
                                  log.read_text(encoding="utf-8"))
                if match:
                    port = int(match.group(1))
            if port is not None:
                try:
                    status, _ = self.request(port, "GET", "/v1/healthz")
                    if status == 200:
                        return proc, port, time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.005)
        proc.kill()
        self.reap(proc)
        raise BenchmarkError("server did not become healthy within 60 s")

    def stop_server(self, proc: subprocess.Popen) -> float:
        proc.send_signal(signal.SIGTERM)
        timer = self._watchdog(proc)
        try:
            return self.reap(proc)
        finally:
            timer.cancel()

    @staticmethod
    def request(port: int, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    @staticmethod
    def follow_events(port: int, job_id: str, t_sent: float, stats: dict) -> None:
        """Read the job's SSE stream until ``stream-closed``."""
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            conn.request("GET", f"/v1/campaigns/{job_id}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise BenchmarkError(f"events of job {job_id}: HTTP {resp.status}")
            first = None
            while True:
                line = resp.readline()
                if not line:
                    raise BenchmarkError(f"events of job {job_id} ended before stream-closed")
                stats["sse_bytes"] += len(line)
                if line.startswith(b"event:"):
                    if first is None:
                        first = time.perf_counter() - t_sent
                    stats["sse_events"] += 1
                    if line.strip() == b"event: stream-closed":
                        break
            stats["first_event_s"] += first
        finally:
            conn.close()

    def run_jobs(self, port: int, docs: list[dict], stats: dict):
        """Closed loop: submit one job, follow it to its result, repeat.

        Returns per-job latencies, the result documents and the count of
        failed jobs.
        """
        latencies, results, failed = [], [], 0
        for job, doc in enumerate(docs):
            t0 = time.perf_counter()
            status, desc = self.request(port, "POST", "/v1/campaigns", doc)
            stats["post_s"] += time.perf_counter() - t0
            if status not in (200, 201):
                failed += 1
                self.problems.append(f"service job {job}: POST returned HTTP {status}")
                continue
            self.follow_events(port, desc["id"], t0, stats)
            t1 = time.perf_counter()
            status, desc = self.request(port, "GET", f"/v1/campaigns/{desc['id']}")
            stats["result_s"] += time.perf_counter() - t1
            latencies.append(time.perf_counter() - t0)
            if status != 200 or desc.get("status") != "done":
                failed += 1
                self.problems.append(f"service job {job}: status {desc.get('status')} "
                                     f"(HTTP {status})")
                continue
            results.append(desc["result"])
        return latencies, results, failed

    def check_service(self, results: list, telemetry_ratio: bool = False) -> dict:
        path = self.tmp / "results.json"
        path.write_text(json.dumps(results), encoding="utf-8")
        cmd = self._child_cmd("check-service", "--results", str(path), "--seed", str(self.seed))
        if telemetry_ratio:
            cmd.append("--telemetry-ratio")
        out = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT)
        if out.returncode != 0:
            raise BenchmarkError(f"service check failed to run: {out.stderr[-2000:]}")
        report = json.loads(out.stdout.strip().splitlines()[-1])
        self.problems += report["problems"]
        return report

    def _job_docs(self, first: int, jobs: int) -> list[dict]:
        return [inputs.service_document(self.seed, job) for job in range(first, first + jobs)]

    def serve_jobs(self, docs: list[dict], state: str, trace_dir: Path | None = None):
        """Start a server, run ``docs`` as a closed loop, stop it.

        Returns (latencies, results, failed, run-phase seconds, set-up
        seconds, server peak RSS MB, client-side stats).
        """
        stats = dict.fromkeys(("post_s", "first_event_s", "result_s", "sse_events",
                               "sse_bytes"), 0)
        proc, port, setup = self.start_server(self.tmp / state, trace_dir)
        try:
            t0 = time.perf_counter()
            latencies, results, failed = self.run_jobs(port, docs, stats)
            run_s = time.perf_counter() - t0
        finally:
            rss = self.stop_server(proc)
        return latencies, results, failed, run_s, setup, rss, stats

    def measure_service(self) -> dict:
        """Rounds of ``self.jobs`` jobs, each on a fresh server, until
        less than half a round of ``--seconds`` is left; every round's
        server start is a ``setup_s`` sample."""
        latencies, results, setups, rss = [], [], [], []
        failed, run_s, rounds = 0, 0.0, 0
        while rounds == 0 or run_s + run_s / rounds / 2 < self.seconds:
            docs = self._job_docs(rounds * self.jobs, self.jobs)
            lat, res, fail, secs, setup, peak, _ = self.serve_jobs(docs, f"state-{rounds}")
            latencies += lat
            results += res
            failed += fail
            run_s += secs
            setups.append(setup)
            rss.append(peak)
            rounds += 1
        while len(setups) < self.setup_samples:
            proc, _, setup = self.start_server(self.tmp / f"setup-{len(setups)}")
            setups.append(setup)
            self.stop_server(proc)
        report = self.check_service(results)
        return {
            "metrics": {
                "setup_s": median(setups),
                "sim_req_per_s": report["requests"] / run_s,
                "job_p50_s": percentile(latencies, 0.5),
                "job_p90_s": job_tail(latencies),
                "peak_rss_mb": max(rss),
            },
            "attempted": rounds * self.jobs,
            "failed": failed,
        }

    def trace_service(self) -> dict:
        docs = self._job_docs(0, self.jobs)
        _, _, plain_failed, plain_s, _, _, _ = self.serve_jobs(docs, "state-plain")
        trace_dir = self.tmp / "trace"
        _, results, failed, traced_s, _, _, stats = self.serve_jobs(docs, "state-traced",
                                                                     trace_dir)
        report = self.check_service(results, telemetry_ratio=True)
        metrics = layers.layer_metrics(layers.load_spans(trace_dir), len(docs))
        for key, value in stats.items():
            metrics[f"service.{key}"] = value / len(docs)
        metrics["obs.telemetry_ratio"] = report["telemetry_ratio"]
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        return {"metrics": metrics, "attempted": 2 * len(docs),
                "failed": plain_failed + failed}


def metric_units(group: str) -> dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[group]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes that still emit every metric (self-tests only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, args.seed, args.seconds, args.smoke)
    bench.tmp.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(bench.src)],
                       cwd=root, env=bench.env, check=True, stdout=subprocess.DEVNULL)
        ref_loop = ref_loop_seconds()
        if args.trace:
            if args.workload == "service":
                out = bench.trace_service()
            else:
                out = bench.trace_batch(args.workload)
            out["metrics"].update(bench.import_metrics())
            out["metrics"]["host.ref_loop_s"] = ref_loop
            units = metric_units("per_layer")
            unknown = set(out["metrics"]) - set(units)
            if unknown:
                raise BenchmarkError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
            # A layer this workload never enters reads 0.
            for name in units:
                out["metrics"].setdefault(name, 0.0)
        else:
            if args.workload == "service":
                out = bench.measure_service()
            else:
                out = bench.measure_batch(args.workload)
            units = metric_units("end_to_end")
    except (BenchmarkError, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        parent = bench.tmp.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    if not args.trace:
        print(f"{args.workload}/host.ref_loop_s {ref_loop:.6f} s (diagnostic)")
    for name, unit in units.items():
        print(f"{args.workload}/{name} {out['metrics'][name]:.6g} {unit}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
