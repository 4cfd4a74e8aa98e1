"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fig15-cold --seed 7011 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see ``perfbench/README.md``
for why each exists and which layer each one stresses):

* ``fig15-cold`` — ``run_spec(FIGURE_SPECS["fig15"], RunContext(native=True))``
  per pass: what ``memtree figure fig15`` makes a user wait for;
* ``heavyleaf-collapse-py`` — ``execute_plan`` of the heavy-leaf saturation
  grid on the ``batched`` backend in pure Python (the lane engine's
  transition and collapse rules);
* ``service-warm`` — a closed loop of ``schedule`` requests and cached
  ``sweep`` requests against a warm ``memtree serve --native`` daemon.

Before any clock starts the native kernels are compiled into
``.bench_build/perfbench/native``.  With ``--trace 0`` the run is split
over fresh worker processes (``worker.py``), run one after another; every
worker sets up from scratch, runs one warm-up pass and then timed passes.
The end-to-end metrics are medians over every timed pass (set-up and peak
RSS: over the run's fresh program processes).  With ``--trace 1`` one untraced and one traced worker
share the run and the per-layer table of the traced one is reported, with
the tracing overhead measured against the untraced one.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the environment stamp, a readable table and any failed check.  Every raw
sample lands in ``.bench_build/perfbench/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Dataset seed when ``--seed`` is not given: the seed of the figure each
#: workload's dataset comes from (fig15's synthetic set, the heavy-leaf set).
DEFAULT_SEEDS = {"fig15-cold": 7011, "heavyleaf-collapse-py": 4099, "service-warm": 7011}

#: Fresh program processes per untraced run (worker processes, or daemons
#: for service-warm); set-up and peak RSS are measured once per process.
SESSIONS_PER_RUN = 3

#: A run must end within this many seconds, builds aside.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.nodes": "count",
    "context.calls": "count",
    "context.self_s": "s",
    "orders.self_s": "s",
    "native.calls": "count",
    "native.self_s": "s",
    "batch.lanes_requested": "count",
    "batch.lanes_simulated": "count",
    "batch.collapse_yield": "ratio",
    "batch.self_s": "s",
    "kernel.py_self_s": "s",
    "validate.calls": "count",
    "validate.self_s": "s",
    "record.calls": "count",
    "record.self_s": "s",
    "records.rows": "count",
    "records.self_s": "s",
    "plan.self_s": "s",
    "backend.self_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.rows_requested": "count",
    "cache.row_hit_ratio": "ratio",
    "report.self_s": "s",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes": "bytes",
    "service.handler_s": "s",
    "service.self_s": "s",
    "service.lock_wait_s": "s",
    "service.outside_handler_ms": "ms",
    "other.self_s": "s",
    "trace.passes": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_pct": "%",
}


def environment_stamp() -> dict[str, Any]:
    """Commit, machine, and interpreter of this run."""
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


class Run:
    """Workers of one benchmark run, started one after another."""

    def __init__(self, args: argparse.Namespace, build: Path) -> None:
        self.args = args
        self.build = build
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        for name in ("REPRO_NATIVE", "REPRO_FAULTS"):  # modes are pinned per workload
            self.env.pop(name, None)
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_NATIVE_CACHE=str(build / "native"),
            # One hash seed for every worker: set and dict orders then do not
            # change the amount of work between processes.
            PYTHONHASHSEED="0",
        )

    def build_native(self) -> None:
        """Compile (or load) the native kernels and byte-compile the package."""
        code = ("import repro.cli, repro.experiments.figures, repro.service, repro.batch;"
                "from repro.native import native_kernels; native_kernels(True)")
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: native kernels unavailable:\n{proc.stderr}")

    def worker(self, seconds: float, *, trace: bool, check_serial: bool = False,
               sessions: int = 1) -> dict[str, Any]:
        with tempfile.TemporaryDirectory(prefix="run-", dir=self.build) as scratch:
            out = Path(scratch) / "result.json"
            command = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", repr(seconds), "--out", str(out), "--scratch", scratch,
            ]
            if trace:
                command.append("--trace")
            if check_serial:
                command.append("--check-serial")
            if sessions > 1:
                command += ["--sessions", str(sessions)]
            spawned = time.monotonic()
            # Its own process group, so a worker that overruns the budget is
            # killed together with any daemon it started.
            proc = subprocess.Popen(command, env=self.env, cwd=ROOT, start_new_session=True)
            try:
                returncode = proc.wait(timeout=max(self.deadline - spawned, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                returncode = "timeout"
            if returncode != 0 or not out.exists():
                return {"attempted": 1, "failed": 1, "walls": [],
                        "failures": [f"worker exited with {returncode}"]}
            result = json.loads(out.read_text())
        if "first_timed" in result:  # set-up from process spawn to the first timed pass
            result["setup_s"] = [result["first_timed"] - spawned]
        return result


def end_to_end(results: list[dict[str, Any]]) -> dict[str, float]:
    rates = [count / wall for r in results for count, wall in zip(r["records"], r["walls"])]
    if any("latencies_ms" in r for r in results):
        latencies = [value for r in results for value in r["latencies_ms"]]
    else:  # one request is one figure / plan request: the whole pass
        latencies = [wall * 1000.0 for r in results for wall in r["walls"]]
    return {
        "setup_s": statistics.median(value for r in results for value in r["setup_s"]),
        "instances_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(value for r in results for value in r["peak_rss_mb"]),
        "request_p50_ms": statistics.median(latencies),
        "request_p90_ms": percentile(latencies, 90),
    }


def per_layer(untraced: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    layers = dict(traced["layers"])
    traced_wall = statistics.median(traced["walls"])
    untraced_wall = statistics.median(untraced["walls"])
    layers.update({
        "trace.passes": float(len(traced["walls"])),
        "trace.pass_s": traced_wall,
        "trace.untraced_pass_s": untraced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    })
    return {name: layers[name] for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    run = Run(args, build)
    run.build_native()
    stamp = environment_stamp()

    if args.trace:
        half = args.seconds / 2.0
        untraced = run.worker(half, trace=False, check_serial=True)
        traced = run.worker(half, trace=True, check_serial=False)
        results = [untraced, traced]
    elif args.workload == "service-warm":
        # The daemon is the fresh process here: one load generator runs the
        # daemon sessions one after another.
        results = [run.worker(args.seconds, trace=False, sessions=SESSIONS_PER_RUN)]
    else:
        share = args.seconds / SESSIONS_PER_RUN
        results = [
            run.worker(share, trace=False, check_serial=index == SESSIONS_PER_RUN - 1)
            for index in range(SESSIONS_PER_RUN)
        ]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    digests = {r["value_digest"] for r in results if r.get("value_digest")}
    if len(digests) > 1:
        attempted += 1
        failed += 1
        failures.append("record values differ between worker processes")
    if not all(r["walls"] for r in results):
        print("perfbench: a worker produced no timed pass:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics, units = end_to_end(results), END_TO_END
    stamp["native_loaded"] = all(r.get("native_loaded") for r in results)

    detail = {"args": vars(args), "environment": stamp, "metrics": metrics,
              "failures": failures, "workers": results}
    detail_path = build / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(stamp, sort_keys=True))
    print(f"workers: {len(results)}, timed passes: {sum(len(r['walls']) for r in results)}"
          f" (warm-up excluded), samples in {detail_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        share = ""
        if args.trace and units[name] == "s" and not name.startswith("trace."):
            share = f"  {100.0 * value / metrics['trace.pass_s']:5.1f}% of a traced pass"
        print(f"  {name:<28} {value:>14.6g} {units[name]}{share}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
