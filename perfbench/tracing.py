"""Span tracer for the benchmark's traced run.

The traced run measures where a workload's time goes, layer by layer,
without changing a single program file: :func:`install` rebinds the module
and class attributes through which the program calls into each layer
(``repro.experiments.runner.prepare_instance``, ``repro.native.simulate``,
``RecordTable.set_row``, ...) to wrappers that record one span per call, and
the returned ``restore`` callable puts the originals back.

A span is ``(name, parent, start, end, self)``; ``self`` is its duration
minus the time covered by its child spans.  Span names are
``"<layer>:<function>"``; a layer's self time is the sum over its names.
Spans are kept in per-thread arrays and written out with :meth:`Tracer.dump`
when the traced process ends; :func:`layer_table` turns a dump into the
per-pass layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Any, Callable

import numpy as np

class _ThreadLog:
    """Spans and counter events of one thread, as parallel arrays."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.stack: list[list[Any]] = []  # [span index, child time]
        self.counter_name = array("i")
        self.counter_time = array("d")
        self.counter_value = array("d")

    def open(self, name_id: int) -> None:
        index = len(self.name)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        stack.append([index, 0.0])
        self.start.append(time.monotonic())

    def close(self) -> None:
        now = time.monotonic()
        index, child_time = self.stack.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - child_time
        if self.stack:
            self.stack[-1][1] += duration


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._ids.setdefault(name, len(self._ids))

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, name_id: int, value: float) -> None:
        log = self.log()
        log.counter_name.append(name_id)
        log.counter_time.append(time.monotonic())
        log.counter_value.append(float(value))

    def snapshot(self) -> dict[str, np.ndarray]:
        """Every thread's spans and counters, concatenated into columns."""
        dtypes = {
            "name": np.int32, "parent": np.int64, "start": np.float64,
            "end": np.float64, "self_time": np.float64, "counter_name": np.int32,
            "counter_time": np.float64, "counter_value": np.float64,
        }
        parts: dict[str, list[np.ndarray]] = {key: [] for key in dtypes}
        offset = 0
        for log in list(self._logs):
            for key, dtype in dtypes.items():
                column = np.frombuffer(getattr(log, key), dtype=dtype).copy()
                if key == "parent":
                    column[column >= 0] += offset
                parts[key].append(column)
            offset += len(log.name)
        names = sorted(self._ids, key=self._ids.get)
        arrays = {
            key: np.concatenate(parts[key]) if parts[key] else np.zeros(0, dtype=dtype)
            for key, dtype in dtypes.items()
        }
        arrays["names"] = np.asarray(names, dtype=object)
        return arrays

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` to an ``.npz`` file."""
        np.savez(path, **self.snapshot())


def load_dump(path: str) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=True) as data:
        return {key: data[key] for key in data.files}


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #
def _traced(tracer: Tracer, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        log = tracer.log()
        log.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close()
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def _traced_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span each step of a generator, not the time its consumer holds it."""
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        steps = fn(*args, **kwargs)
        while True:
            log = tracer.log()
            log.open(name_id)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                log.close()
            yield item

    return traced


class _TimedLock:
    """A lock whose acquisitions are spans (the wait for the service lock)."""

    def __init__(self, lock: Any, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer
        self._name_id = tracer.name_id("service.lock:acquire")

    def __enter__(self) -> "_TimedLock":
        log = self._tracer.log()
        log.open(self._name_id)
        try:
            self._lock.acquire()
        finally:
            log.close()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the callable that restores them."""
    import repro.batch.backend as batch_backend
    import repro.batch.lanes as lanes
    import repro.experiments.plan as plan
    import repro.experiments.runner as runner
    import repro.experiments.specs as specs
    import repro.native as native
    import repro.service.server as server
    import repro.workloads.datasets as datasets
    from repro.experiments.records import RecordTable, ResultCache
    from repro.orders import ORDER_FACTORIES
    from repro.schedulers.base import Scheduler

    saved: list[tuple[Any, str, Any]] = []

    def rebind(owner: Any, attr: str, layer: str, after: Callable | None = None,
               generator: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        fn = original.__func__ if isinstance(original, classmethod) else original
        name = f"{layer}:{attr}"
        wrapped = (_traced_generator(tracer, name, fn) if generator
                   else _traced(tracer, name, fn, after))
        setattr(owner, attr, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)

    def counter(name: str, value: Callable[[tuple, dict, Any], float]) -> Callable:
        name_id = tracer.name_id(name)
        return lambda args, kwargs, result: tracer.count(name_id, value(args, kwargs, result))

    nodes = counter("workloads.nodes", lambda a, k, r: sum(tree.n for tree in r[0]))
    for owner in (specs, datasets):
        for attr in ("synthetic_dataset", "heavyleaf_dataset"):
            rebind(owner, attr, "workloads", nodes)
    for owner in (runner, server):
        rebind(owner, "prepare_instance", "context")
    for attr in ("minimum_memory_postorder", "sequential_peak_memory"):
        rebind(runner, attr, "orders")
    saved.append((ORDER_FACTORIES, None, dict(ORDER_FACTORIES)))
    for key, factory in list(ORDER_FACTORIES.items()):
        ORDER_FACTORIES[key] = _traced(tracer, f"orders:{key}", factory)
    rebind(native, "simulate", "native")
    rebind(batch_backend.BatchedBackend, "run_plan", "batch")
    rebind(batch_backend, "simulate_lanes", "batch",
           counter("batch.lanes_requested", lambda a, k, r: len(_arg(a, k, 5, "lanes"))))
    rebind(lanes, "_run_batch", "kernel.py",
           counter("batch.lanes_simulated", lambda a, k, r: len(_arg(a, k, 2, "lanes"))))
    rebind(Scheduler, "schedule", "kernel.py")
    rebind(runner, "validate_schedule", "validate")
    rebind(runner, "complete_record", "record")
    for attr in ("empty", "from_dicts", "set_row", "row", "to_dicts"):
        rebind(RecordTable, attr, "records")
    for owner in (specs, server):
        rebind(owner, "execute_plan_cached", "plan")
    for owner in (plan, server):
        rebind(owner, "tree_content_sha", "plan")
    for attr in ("from_config", "subset", "instance_keys", "tree_groups"):
        rebind(plan.SweepPlan, attr, "plan")
    rebind(plan, "execute_plan", "backend")
    requested = counter("cache.rows_requested", lambda a, k, r: len(_arg(a, k, 1, "keys")))
    hit = counter("cache.rows_hit", lambda a, k, r: len(r))
    rebind(ResultCache, "get_rows", "cache.get", lambda a, k, r: (requested(a, k, r), hit(a, k, r)))
    rebind(ResultCache, "put_rows", "cache.put")
    rebind(RecordTable, "to_bytes", "wire.encode")
    rebind(server, "encode_payload", "wire.encode")
    rebind(server, "send_frame", "wire.encode",
           counter("wire.bytes", lambda a, k, r: 5 + len(_arg(a, k, 2, "payload"))))
    rebind(server, "decode_payload", "wire.decode",
           counter("wire.bytes", lambda a, k, r: 5 + len(_arg(a, k, 0, "data"))))
    rebind(server.SchedulerService, "handle", "service", generator=True)

    service_init = server.SchedulerService.__dict__["__init__"]
    saved.append((server.SchedulerService, "__init__", service_init))

    @functools.wraps(service_init)
    def init_with_timed_lock(self: Any, *args: Any, **kwargs: Any) -> None:
        service_init(self, *args, **kwargs)
        self._exec_lock = _TimedLock(self._exec_lock, tracer)

    server.SchedulerService.__init__ = init_with_timed_lock

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)

    return restore


def traced_analyzer(tracer: Tracer, analyze: Callable) -> Callable:
    """A figure spec's analyzer wrapped as the ``report`` layer."""
    return _traced(tracer, "report:analyze", analyze)


# --------------------------------------------------------------------------- #
# the layer table
# --------------------------------------------------------------------------- #
def layer_table(
    dump: dict[str, np.ndarray],
    *,
    passes: int,
    windows: list[tuple[float, float]],
) -> dict[str, float]:
    """Per-pass layer metrics of the spans and counters inside ``windows``.

    Self times are seconds per pass, counts are per pass; ratios come with
    their bases (``batch.lanes_requested``, ``cache.rows_requested``).
    """
    names = [str(name) for name in dump["names"]]
    start, end = dump["start"], dump["end"]
    counter_time = dump["counter_time"]
    keep = np.zeros(len(start), dtype=bool)
    counter_keep = np.zeros(len(counter_time), dtype=bool)
    for first, last in windows:
        keep |= (start >= first) & (end <= last)
        counter_keep |= (counter_time >= first) & (counter_time <= last)
    keep &= end >= start  # a span still open at dump time has no end
    span_name = dump["name"][keep].astype(np.int64)
    self_time = np.bincount(span_name, dump["self_time"][keep], minlength=len(names))
    inclusive = np.bincount(span_name, (end - start)[keep], minlength=len(names))
    calls = np.bincount(span_name, minlength=len(names))
    counts = np.bincount(
        dump["counter_name"][counter_keep].astype(np.int64),
        dump["counter_value"][counter_keep],
        minlength=len(names),
    )
    root = keep & (dump["parent"] == -1)
    per = 1.0 / max(passes, 1)

    def layer_self(layer: str) -> float:
        return per * float(sum(self_time[i] for i, n in enumerate(names) if n.split(":")[0] == layer))

    def by_name(table: np.ndarray, name: str) -> float:
        return per * float(table[names.index(name)]) if name in names else 0.0

    lanes_requested = by_name(counts, "batch.lanes_requested")
    rows_requested = by_name(counts, "cache.rows_requested")
    table = {
        "workloads.generate_s": layer_self("workloads"),
        "workloads.nodes": by_name(counts, "workloads.nodes"),
        "context.calls": by_name(calls, "context:prepare_instance"),
        "context.self_s": layer_self("context"),
        "orders.self_s": layer_self("orders"),
        "native.calls": by_name(calls, "native:simulate"),
        "native.self_s": layer_self("native"),
        "batch.lanes_requested": lanes_requested,
        "batch.lanes_simulated": by_name(counts, "batch.lanes_simulated"),
        "batch.collapse_yield": (
            by_name(counts, "batch.lanes_simulated") / lanes_requested if lanes_requested else 0.0
        ),
        "batch.self_s": layer_self("batch"),
        "kernel.py_self_s": layer_self("kernel.py"),
        "validate.calls": by_name(calls, "validate:validate_schedule"),
        "validate.self_s": layer_self("validate"),
        "record.calls": by_name(calls, "record:complete_record"),
        "record.self_s": layer_self("record"),
        "records.rows": by_name(calls, "records:set_row"),
        "records.self_s": layer_self("records"),
        "plan.self_s": layer_self("plan"),
        "backend.self_s": layer_self("backend"),
        "cache.get_s": layer_self("cache.get"),
        "cache.put_s": layer_self("cache.put"),
        "cache.rows_requested": rows_requested,
        "cache.row_hit_ratio": (
            by_name(counts, "cache.rows_hit") / rows_requested if rows_requested else 0.0
        ),
        "report.self_s": layer_self("report"),
        "wire.encode_s": layer_self("wire.encode"),
        "wire.decode_s": layer_self("wire.decode"),
        "wire.bytes": by_name(counts, "wire.bytes"),
        "service.handler_s": by_name(inclusive, "service:handle"),
        "service.self_s": layer_self("service"),
        "service.lock_wait_s": layer_self("service.lock"),
        # Set by the service workload, which times the requests client-side.
        "service.outside_handler_ms": 0.0,
        "other.self_s": layer_self("pass"),
        # Time covered by spans with no parent, for callers that measure the
        # enclosing wall time themselves (the daemon has no pass span).
        "covered_s": per * float((end - start)[root].sum()),
    }
    return table
