"""One benchmark worker: set up one workload, time its passes, check its outputs.

``run.py`` starts a fresh worker process for every measurement, so each
one pays the real set-up a user pays (interpreter start, imports, dataset
load) and starts from cold per-tree state.  For service-warm the fresh
process is the daemon: one worker runs ``--sessions`` daemons in turn::

    python3 perfbench/worker.py --workload fig15-cold --seed 7011 --seconds 10 \
        --out result.json --scratch DIR [--trace] [--check-serial] [--sessions N]

The worker runs one untimed warm-up pass, then timed passes until
``--seconds`` have elapsed, with ``gc.collect()`` between passes and never
inside one.  It writes a JSON result: pass wall times, records per pass,
request latencies, the start of the first timed pass (``time.monotonic``,
which is one clock for every process on Linux, so ``run.py`` can measure
set-up from the moment it spawned the worker), the peak RSS of the process
that ran the program, operation counts and every failed check.  With
``--trace`` the timed passes run under the span tracer of ``tracing.py``
and the result carries the per-pass layer table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import queue
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (benchmark-local module)

TIMING_FIELDS = frozenset({"scheduling_seconds", "scheduling_seconds_per_node"})

#: The paper trio and the fig15 grid (``FIGURE_SPECS["fig15"]``), which
#: service-warm serves as ``sweep`` and samples as ``schedule`` requests.
TRIO = ("Activation", "MemBooking", "MemBookingRedTree")
FIG15_PROCESSORS = (2, 4, 8, 16, 32)
FIG15_FACTORS = (1.5, 2.0, 5.0, 10.0)

#: ``SATURATION_CONFIG`` of ``benchmarks/test_batch_speed.py``: the two
#: lane-kernel heuristics under a saturating processor axis.
SATURATION_SCHEDULERS = ("Activation", "MemBooking")
SATURATION_PROCESSORS = (2, 4, 8, 16, 32, 64, 128)
SATURATION_FACTORS = (1.5, 2.0, 5.0, 10.0, 20.0)

#: service-warm: schedule requests per cycle (each cycle ends with one sweep)
#: and the share of them re-run in-process to check the daemon's answers.
SCHEDULES_PER_CYCLE = 49
CHECK_EVERY = 10


#: Label of the checks that belong to the run rather than one operation
#: (values identical across passes, native mode pinned, clean shutdown).
RUN_CHECKS = "run checks"


class Outcome:
    """Operations attempted, and the reasons each failed one failed.

    A failed operation is an exception, an error frame or a failed output
    check; ``failed`` maps each failed operation's label to its reasons.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}

    def run(self, operation: Callable[[], Any], kind: str) -> tuple[Any, str]:
        """Run one operation; returns ``(value or None, label)``."""
        self.attempted += 1
        label = f"{kind} #{self.attempted}"
        try:
            return operation(), label
        except Exception as exc:  # every failure is reported, none is fatal
            self.check(label, [f"{type(exc).__name__}: {exc}"])
            return None, label

    def check(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(label, []).extend(problems)


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #
def theorem1_violations(records: Iterable[Mapping[str, Any]]) -> list[str]:
    """MemBooking rows whose bound covers the memPO peak must complete (Theorem 1)."""
    return [
        f"Theorem 1: MemBooking tree {r['tree_index']} p={r['num_processors']} "
        f"M={r['memory_factor']} did not complete: {r['failure_reason']}"
        for r in records
        if r["scheduler"] == "MemBooking"
        and r["memory_limit"] >= r["minimum_memory"]
        and not r["completed"]
    ]


def value_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """Digest of every record field except the wall-clock timings."""
    rows = [
        sorted((k, v) for k, v in record.items() if k not in TIMING_FIELDS)
        for record in records
    ]
    return hashlib.sha256(pickle.dumps(rows, protocol=4)).hexdigest()


def native_loaded() -> bool:
    import repro.native as native

    return isinstance(native._LOADED, native.NativeKernels)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# batch workloads: one pass = one figure / plan request
# --------------------------------------------------------------------------- #
def run_passes(
    result: dict[str, Any],
    outcome: Outcome,
    one_pass: Callable[[], Any],
    check: Callable[[Any], list[str]],
    records_of: Callable[[Any], list[dict[str, Any]]],
    seconds: float,
    tracer: "tracing.Tracer | None",
) -> None:
    """Warm-up pass, then timed passes until ``seconds`` have elapsed.

    Each pass's output is checked after its clock stopped: the workload's
    own ``check``, Theorem 1, and value identity with every other pass.
    """
    digests: set[str] = set()

    def checked(output: Any, label: str) -> int:
        records = records_of(output)
        outcome.check(label, check(output) + theorem1_violations(records))
        digests.add(value_digest(records))
        return len(records)

    output, label = outcome.run(one_pass, "warm-up pass")
    if output is not None:
        checked(output, label)
    gc.collect()
    restore = tracing.install(tracer) if tracer is not None else None
    pass_id = tracer.name_id("pass:timed") if tracer is not None else 0
    walls: list[float] = []
    counts: list[int] = []
    windows: list[tuple[float, float]] = []
    try:
        result["first_timed"] = time.monotonic()
        deadline = result["first_timed"] + seconds
        while len(walls) < 2 or time.monotonic() < deadline:
            start = time.monotonic()
            log = tracer.log() if tracer is not None else None
            if log is not None:
                log.open(pass_id)
            tic = time.perf_counter()
            try:
                output, label = outcome.run(one_pass, "pass")
            finally:
                wall = time.perf_counter() - tic
                if log is not None:
                    log.close()
            windows.append((start, time.monotonic()))
            if output is None:
                break
            walls.append(wall)
            counts.append(checked(output, label))
            gc.collect()
    finally:
        if restore is not None:
            restore()
    result.update(walls=walls, records=counts, peak_rss_mb=[peak_rss_mb()],
                  value_digest=min(digests) if len(digests) == 1 else None)
    outcome.check(RUN_CHECKS, [] if len(digests) <= 1 else
                  [f"record values differ between passes ({len(digests)} variants)"])
    if tracer is not None:
        # Only spans inside a timed pass: the output checks call layers too.
        result["layers"] = tracing.layer_table(tracer.snapshot(), passes=len(walls),
                                               windows=windows)


def fig15_cold(args: argparse.Namespace, result: dict, outcome: Outcome, tracer) -> None:
    from repro.experiments.figures import FIGURE_SPECS
    from repro.experiments.specs import RunContext, run_spec

    spec = FIGURE_SPECS["fig15"]
    if tracer is not None:
        spec = replace(spec, analyze=tracing.traced_analyzer(tracer, spec.analyze))

    def one_pass():
        # A fresh context per pass: the dataset is regenerated and the
        # per-tree memo is cold, exactly as in a `memtree figure` process.
        return run_spec(spec, RunContext(native=True), seed=args.seed)

    def check(figure) -> list[str]:
        problems = [] if figure.all_checks_pass else [f"figure checks failed: {figure.checks}"]
        if len(figure.records) != 600:
            problems.append(f"expected 600 records, got {len(figure.records)}")
        return problems

    run_passes(result, outcome, one_pass, check, lambda f: f.records.to_dicts(),
               args.seconds, tracer)
    result["native_loaded"] = native_loaded()
    outcome.check(RUN_CHECKS, [] if result["native_loaded"] else
                  ["fig15-cold declares native kernels but they are not loaded"])


def heavyleaf_collapse_py(args: argparse.Namespace, result: dict, outcome: Outcome, tracer) -> None:
    import repro.experiments.plan as plan_mod
    import repro.workloads.datasets as datasets
    from repro.experiments import SweepConfig
    from repro.experiments.records import records_equal

    config = SweepConfig(
        schedulers=SATURATION_SCHEDULERS,
        processors=SATURATION_PROCESSORS,
        memory_factors=SATURATION_FACTORS,
        min_completion_fraction=0.0,
        native=False,
    )
    num_trees = len(datasets.heavyleaf_dataset("small", seed=args.seed)[0])
    plan = plan_mod.SweepPlan.from_config(config, num_trees)

    def one_pass():
        trees, _ = datasets.heavyleaf_dataset("small", seed=args.seed)
        return plan_mod.execute_plan(trees, plan, backend="batched")

    def check(table) -> list[str]:
        return [] if len(table) == len(plan) else [f"expected {len(plan)} records, got {len(table)}"]

    run_passes(result, outcome, one_pass, check, lambda t: t.to_dicts(), args.seconds, tracer)
    if args.check_serial:
        def serial_parity() -> tuple:
            trees, _ = datasets.heavyleaf_dataset("small", seed=args.seed)
            return (plan_mod.execute_plan(trees, plan, backend="batched"),
                    plan_mod.execute_plan(trees, plan, backend="serial"))

        tables, label = outcome.run(serial_parity, "serial parity")
        if tables is not None:
            outcome.check(label, [] if records_equal(*tables, ignore=TIMING_FIELDS) else
                          ["batched records differ from the serial backend's"])
    result["native_loaded"] = native_loaded()
    outcome.check(RUN_CHECKS, [] if not result["native_loaded"] else
                  ["heavyleaf-collapse-py declares pure Python but native kernels were loaded"])


# --------------------------------------------------------------------------- #
# service-warm: a closed loop over one connection to a `memtree serve` daemon
# --------------------------------------------------------------------------- #
def _start_daemon(command: list[str], timeout: float) -> subprocess.Popen:
    """Spawn the daemon and wait for its "listening" line."""
    daemon = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    lines: "queue.Queue[str]" = queue.Queue()

    def pump() -> None:
        for line in daemon.stdout:  # drains the pipe until the daemon exits
            lines.put(line)
        lines.put("")

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + timeout
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.monotonic(), 0.01))
        except queue.Empty:
            line = ""
        if "listening" in line:
            return daemon
        if not line:
            _stop_daemon(daemon)
            raise RuntimeError("memtree serve did not start listening")


def _stop_daemon(daemon: subprocess.Popen) -> int:
    """SIGTERM, then wait; a daemon that does not exit is killed."""
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
    try:
        return daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
        return -signal.SIGKILL


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServiceLoad:
    """The closed-loop load generator of service-warm, over daemon sessions.

    Each session spawns a fresh daemon with an empty row cache, sets it up
    (one fresh fig15-grid sweep, one ``schedule`` per tree), runs one
    warm-up cycle, then timed cycles over one connection.  A session's
    daemon gets SIGTERM as soon as its timed part ends; it is reaped after
    the last session (its shutdown waits, idle, on its accept thread).
    """

    def __init__(self, args: argparse.Namespace, outcome: Outcome, traced: bool) -> None:
        self.args = args
        self.outcome = outcome
        self.traced = traced
        self.dataset = "synthetic:small"
        self.grid = {"schedulers": list(TRIO), "processors": list(FIG15_PROCESSORS),
                     "memory_factors": list(FIG15_FACTORS)}
        self.daemons: list[subprocess.Popen] = []
        self.setups: list[float] = []
        self.peaks: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.rtts: list[float] = []
        self.cycle_walls: list[float] = []
        self.request_seconds: list[float] = []
        self.sampled: list[tuple[str, dict, dict]] = []
        self.schedules = 0
        self.digest: str | None = None
        self.native = True

    def session(self, directory: Path, seconds: float) -> None:
        from repro.service import ServiceClient

        # Socket and cache live in a private directory; a relative socket
        # path stays short however deep the checkout is.
        directory.mkdir()
        os.chdir(directory)
        serve = ["serve", "--socket", "./serve.sock", "--load",
                 f"{self.dataset}:{self.args.seed}", "--cache-dir", "./cache", "--native"]
        if self.traced:
            command = [sys.executable, str(HERE / "traced_serve.py"), "--spans", "spans.npz", *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        spawned = time.monotonic()
        daemon = _start_daemon(command, timeout=120)
        self.daemons.append(daemon)
        try:
            with ServiceClient("./serve.sock", timeout=120) as client:
                self._setup(client)
                rng = random.Random(self.args.seed)
                self._cycle(client, rng, timed=False)  # warm-up
                gc.collect()
                start = time.monotonic()
                self.setups.append(start - spawned)
                walls = len(self.cycle_walls)
                while len(self.cycle_walls) < walls + 2 or time.monotonic() < start + seconds:
                    self._cycle(client, rng, timed=True)
                self.windows.append((start, time.monotonic()))
            self.peaks.append(_vm_hwm_mb(daemon.pid))
        finally:
            daemon.send_signal(signal.SIGTERM)

    def _setup(self, client) -> None:
        outcome = self.outcome
        status, label = outcome.run(client.status, "status")
        pinned = bool(status and status.get("native") is True)
        self.native = self.native and pinned
        outcome.check(label, [] if pinned else ["service-warm daemon is not pinned to native kernels"])
        setup, label = outcome.run(lambda: client.sweep(self.dataset, **self.grid), "setup sweep")
        if setup is None:
            raise RuntimeError(f"setup sweep failed: {outcome.failed[label]}")
        self.setup_records, stats = setup
        outcome.check(label, [] if len(self.setup_records) == 600 == stats["fresh_rows"] else
                      [f"{len(self.setup_records)} rows, {stats['fresh_rows']} fresh (want 600)"])
        digest = value_digest(self.setup_records)
        outcome.check(RUN_CHECKS, [] if self.digest in (None, digest) else
                      ["setup sweep values differ between daemon sessions"])
        self.digest = digest
        self.num_trees = len({r["tree_index"] for r in self.setup_records})
        for index in range(self.num_trees):  # warm every tree's context once
            outcome.run(lambda: client.schedule(dataset=self.dataset, tree_index=index,
                                                scheduler="MemBooking", processors=8,
                                                memory_factor=2.0), "touch")

    def _cycle(self, client, rng: random.Random, timed: bool) -> None:
        """49 schedule requests from the seeded stream, then one sweep."""
        from repro.experiments.records import records_equal

        outcome = self.outcome
        perf_counter = time.perf_counter
        tic = perf_counter()
        spent = 0.0
        for _ in range(SCHEDULES_PER_CYCLE):
            request = {"dataset": self.dataset, "tree_index": rng.randrange(self.num_trees),
                       "scheduler": rng.choice(TRIO), "processors": rng.choice(FIG15_PROCESSORS),
                       "memory_factor": rng.choice(FIG15_FACTORS)}
            start = perf_counter()
            record, label = outcome.run(lambda: client.schedule(**request), "schedule")
            rtt = perf_counter() - start
            spent += rtt
            if record is not None:
                if timed:
                    self.rtts.append(rtt)
                outcome.check(label, theorem1_violations([record]))
                self.schedules += 1
                if self.schedules % CHECK_EVERY == 0:
                    self.sampled.append((label, request, record))
        start = perf_counter()
        swept, label = outcome.run(lambda: client.sweep(self.dataset, **self.grid), "sweep")
        wall = perf_counter() - tic
        spent += perf_counter() - start
        if timed:
            self.cycle_walls.append(wall)
            self.request_seconds.append(spent)
        if swept is not None:
            records, stats = swept
            problems = [] if stats["fresh_rows"] == 0 else [
                f"warm sweep simulated {stats['fresh_rows']} fresh rows"]
            if not records_equal(records, self.setup_records):
                problems.append("warm sweep records differ from the setup sweep")
            outcome.check(label, problems + theorem1_violations(records))

    def reap(self) -> None:
        """Wait for every daemon; each must have shut down cleanly."""
        for daemon in self.daemons:
            code = _stop_daemon(daemon)
            self.outcome.check(RUN_CHECKS, [] if code == 0 else
                               [f"memtree serve exited with code {code}"])

    def replay_samples(self) -> None:
        """Re-run every sampled schedule request in-process through run_single."""
        from repro.experiments import SweepConfig
        from repro.experiments.records import records_equal
        from repro.experiments.runner import prepare_instance, run_single
        from repro.workloads.datasets import synthetic_dataset

        def replay() -> list[tuple[str, dict, dict]]:
            trees, _ = synthetic_dataset("small", seed=self.args.seed)
            contexts: dict[int, Any] = {}
            replayed = []
            for label, request, record in self.sampled:
                index = request["tree_index"]
                config = SweepConfig(schedulers=(request["scheduler"],), memory_factors=(1.0,),
                                     processors=(request["processors"],), native=True)
                if index not in contexts:
                    contexts[index] = prepare_instance(trees[index], index, config)
                replayed.append((label, record, run_single(
                    contexts[index], request["scheduler"], request["processors"],
                    request["memory_factor"], config)))
            return replayed

        replayed, _ = self.outcome.run(replay, "in-process replay")
        for label, record, local in replayed or ():
            self.outcome.check(label, [] if records_equal([local], [record], ignore=TIMING_FIELDS)
                               else ["daemon schedule record differs from in-process run_single"])


def service_warm(args: argparse.Namespace, result: dict, outcome: Outcome, tracer) -> None:
    load = ServiceLoad(args, outcome, traced=tracer is not None)
    scratch = Path(args.scratch)
    try:
        for index in range(args.sessions):
            load.session(scratch / f"session-{index}", args.seconds / args.sessions)
        load.replay_samples()  # while the last daemon shuts down
    finally:
        load.reap()
    result.update(
        # `--native` requires the kernels: without them every request fails.
        native_loaded=load.native,
        setup_s=load.setups,
        peak_rss_mb=load.peaks,
        walls=load.cycle_walls,
        records=[SCHEDULES_PER_CYCLE + 600] * len(load.cycle_walls),
        latencies_ms=[rtt * 1000.0 for rtt in load.rtts],
        sampled_checks=len(load.sampled),
        value_digest=load.digest,
    )
    if tracer is not None:
        passes = len(load.cycle_walls)
        table = tracing.layer_table(tracing.load_dump(str(scratch / "session-0" / "spans.npz")),
                                    passes=passes, windows=load.windows)
        table["other.self_s"] = sum(load.cycle_walls) / passes - table["covered_s"]
        table["service.outside_handler_ms"] = 1000.0 * (
            sum(load.request_seconds) / passes - table["service.handler_s"]
        ) / (SCHEDULES_PER_CYCLE + 1)
        result["layers"] = table


WORKLOADS = {
    "fig15-cold": fig15_cold,
    "heavyleaf-collapse-py": heavyleaf_collapse_py,
    "service-warm": service_warm,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True, help="directory for sockets and caches")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check-serial", action="store_true")
    parser.add_argument("--sessions", type=int, default=1,
                        help="service-warm: daemon sessions, one after another")
    args = parser.parse_args()
    result: dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    outcome = Outcome()
    tracer = tracing.Tracer() if args.trace else None
    try:
        WORKLOADS[args.workload](args, result, outcome, tracer)
    except Exception as exc:  # reported, never hidden: the run is then incorrect
        outcome.attempted += 1
        outcome.check("workload", [f"aborted: {type(exc).__name__}: {exc}"])
    outcome.attempted += 1  # the run checks
    result.update(
        attempted=outcome.attempted,
        failed=len(outcome.failed),
        failures=[f"{label}: {problem}" for label, problems in outcome.failed.items()
                  for problem in problems][:50],
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
