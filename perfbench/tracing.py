"""Host-clock spans around calls into the program's layers.

The wrappers are installed from outside the package: each target is a
module-level function or a class attribute of :mod:`repro`, and every
loaded module that imported a target function by name (the benchmark's
own included) gets the wrapper as well.  Nothing under ``src/`` changes.

A span is ``(id, name, start_ns, end_ns, parent, thread, count, phase)``
on ``time.perf_counter_ns``.  Spans nest per thread; a span opened on a
helper thread while a ``Device.commit_pair`` span is open on another
thread takes that span as its parent (``commit_pair`` prices its second
launch on a helper thread).  Forked pool workers inherit the wrappers;
each worker appends its spans to ``spans-<pid>.jsonl`` in the run's
scratch directory when a root span closes, and the coordinator collects
them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


def _len_arg(i):
    return lambda args, kwargs, out: len(args[i])


# (span name, "module:qualname" targets, count of the work one call did)
TARGETS = [
    ("graph.generate", ["repro.graph.generators.suite:load_graph",
                        "repro.graph.generators.rmat:rmat_er",
                        "repro.graph.generators.rmat:rmat_g"], None),
    ("graph.store_publish", ["repro.graph.store:GraphStore.place",
                             "repro.graph.store:GraphStore.publish",
                             "repro.graph.store:HeapStore.place",
                             "repro.graph.store:HeapStore.publish"], None),
    ("graph.csrbin_write", ["repro.graph.io.stream:write_csr_bin"], None),
    ("kernels.color", ["repro.coloring.kernels:speculative_color_step",
                       "repro.coloring.kernels:speculative_color_waved"], None),
    ("kernels.conflict", ["repro.coloring.kernels:detect_conflicts"], None),
    ("kernels.mex", ["repro.coloring.kernels:min_excluded_colors"], None),
    ("kernels.charge", ["repro.coloring.kernels:charge_color_kernel",
                        "repro.coloring.kernels:charge_conflict_kernel",
                        "repro.coloring.kernels:charge_color_kernel_lb",
                        "repro.coloring.kernels:charge_conflict_kernel_edges"], None),
    ("trace.access", ["repro.gpusim.trace:TraceBuilder.access"], None),
    ("trace.build", ["repro.gpusim.trace:TraceBuilder.build"], None),
    ("timing.price", ["repro.gpusim.timing:price_kernel"],
     lambda args, kwargs, out: int(out.memory.transactions)),
    ("cache.reuse", ["repro.gpusim.cache:reuse_distance_hits"], None),
    ("device.commit", ["repro.gpusim.device:Device.commit"], None),
    ("device.commit_pair", ["repro.gpusim.device:Device.commit_pair"], None),
    ("cpusim.run", ["repro.cpusim.model:CPU.run"], None),
    ("engine.loop", ["repro.engine.runner:RoundLoop.run"],
     lambda args, kwargs, out: int(out.iterations)),
    ("engine.upload", ["repro.engine.context:ExecutionContext.buffers_for"], None),
    ("primitives.compact", ["repro.primitives.compact:charge_compaction"], None),
    ("primitives.scan", ["repro.primitives.scan:exclusive_scan",
                         "repro.primitives.scan:blelloch_cost"], None),
    ("parallel.execute", ["repro.parallel.scheduler:SerialScheduler.execute",
                          "repro.parallel.scheduler:ProcessPoolScheduler.execute"],
     _len_arg(1)),
    ("parallel.worker_job", ["repro.parallel.scheduler:_worker_run"], None),
    ("parallel.cache_key", ["repro.parallel.cache:job_cache_key"], None),
    ("parallel.cache_get", ["repro.parallel.cache:ResultCache.get"],
     lambda args, kwargs, out: int(out is not None)),
    ("halo.plan", ["repro.distributed.halo:build_halo_plan"], None),
    ("transport.run_shards", ["repro.distributed.transport:LocalTransport.run_shards",
                              "repro.distributed.transport:PoolTransport.run_shards"], None),
    ("transport.deliver", ["repro.distributed.transport:Transport.deliver",
                           "repro.distributed.transport:PoolTransport.deliver"],
     _len_arg(1)),
    ("checkpoint.save", ["repro.resilience.checkpoint:write_checkpoint"],
     lambda args, kwargs, out: int(out)),
    ("service.engine", ["repro.service.service:ColoringService._execute"],
     _len_arg(1)),
    ("dynamic.edit", ["repro.coloring.dynamic:DynamicColoring.apply"],
     lambda args, kwargs, out: int(out.extra["dynamic"]["repaired"])),
]


def _resolve(target):
    mod_name, qual = target.split(":")
    owner = importlib.import_module(mod_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = Path(work_dir)
        self.pid = os.getpid()
        self.phase = "setup"
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pair: tuple[int, int] | None = None  # (span id, thread id)
        self._patches: list[tuple] = []  # (owner, attr, original)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._pair = None

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            tid = threading.get_ident()
            parent = stack[-1] if stack else None
            if parent is None and rec._pair is not None and rec._pair[1] != tid:
                parent = rec._pair[0]
            sid = (os.getpid() << 32) | next(rec._ids)
            stack.append(sid)
            is_pair = name == "device.commit_pair"
            if is_pair:
                rec._pair = (sid, tid)
            n = 0
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, out)
                return out
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if is_pair:
                    rec._pair = None
                rec.spans.append((sid, name, t0, t1, parent, tid, n, rec.phase))
                if parent is None and os.getpid() != rec.pid:
                    rec._flush_worker()

        return wrapper

    def _flush_worker(self) -> None:
        spans, self.spans = self.spans, []
        path = self.work_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    def collect_workers(self) -> None:
        """Move the spans forked workers wrote into this process's list."""
        for path in sorted(self.work_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        loaded = [m for m in list(sys.modules.values())
                  if isinstance(getattr(m, "__dict__", None), dict)]
        for name, targets, count in TARGETS:
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, count)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for mod in loaded:  # modules that imported it by name
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# -- per-layer metrics -----------------------------------------------------
TIME_METRICS = {
    "graph.generate_s": "graph.generate",
    "graph.store_publish_s": "graph.store_publish",
    "graph.csrbin_write_s": "graph.csrbin_write",
    "kernels.color_s": "kernels.color",
    "kernels.conflict_s": "kernels.conflict",
    "kernels.mex_s": "kernels.mex",
    "kernels.charge_s": "kernels.charge",
    "trace.access_s": "trace.access",
    "trace.build_s": "trace.build",
    "timing.price_s": "timing.price",
    "cache.reuse_s": "cache.reuse",
    "device.commit_s": ("device.commit", "device.commit_pair"),
    "cpusim.run_s": "cpusim.run",
    "engine.upload_s": "engine.upload",
    "primitives.compact_s": "primitives.compact",
    "primitives.scan_s": "primitives.scan",
    "parallel.execute_s": "parallel.execute",
    "parallel.cache_key_s": "parallel.cache_key",
    "halo.plan_s": "halo.plan",
    "transport.run_shards_s": "transport.run_shards",
    "transport.deliver_s": "transport.deliver",
    "checkpoint.save_s": "checkpoint.save",
    "service.engine_s": "service.engine",
    "dynamic.edit_s": "dynamic.edit",
}
CALL_METRICS = {
    "kernels.color_calls": "kernels.color",
    "trace.access_calls": "trace.access",
    "timing.kernels_priced": "timing.price",
    "parallel.cache_gets": "parallel.cache_get",
    "checkpoint.saves": "checkpoint.save",
    "service.batches": "service.engine",
    "dynamic.edits": "dynamic.edit",
}
COUNT_METRICS = {
    "timing.transactions": "timing.price",
    "engine.rounds": "engine.loop",
    "parallel.jobs": "parallel.execute",
    "parallel.cache_hits": "parallel.cache_get",
    "transport.messages": "transport.deliver",
    "checkpoint.bytes": "checkpoint.save",
    "dynamic.repaired": "dynamic.edit",
}
# Read from the workload's own per-round counters, not from spans.
COUNTER_METRICS = ("halo.sync_rounds", "halo.bytes_modeled", "halo.speculation_hits",
                   "service.engine_runs", "service.served_without_engine")


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(spans, rounds: int):
    """Per-name totals: self ns over every span; calls, counts and
    inclusive ns over the outermost spans of each name only, so a name
    that nests in itself (``publish`` calling ``place``) counts once.
    Round-phase spans are divided by ``rounds`` (per-round figures);
    set-up spans count once.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    table: dict[str, dict] = {}
    for sid, name, t0, t1, parent, _tid, n, phase in spans:
        w = 1.0 if phase == "setup" else 1.0 / rounds
        row = table.setdefault(name, {"calls": 0.0, "incl_ns": 0.0, "self_ns": 0.0,
                                      "count": 0.0})
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        row["self_ns"] += (t1 - t0 - _union_ns([k for k in kids if k[1] > k[0]])) * w
        p = parent
        while p is not None and p in by_id and by_id[p][1] != name:
            p = by_id[p][4]
        if p is None or p not in by_id:  # outermost span of its name
            row["calls"] += w
            row["count"] += n * w
            row["incl_ns"] += (t1 - t0) * w
    # Pricing time spent inside commit_pair, for the overlap ratio.
    pair_ns = sum(s[3] - s[2] for s in spans if s[1] == "device.commit_pair")
    priced_in_pair = sum(
        s[3] - s[2] for s in spans
        if s[1] == "timing.price" and s[4] in by_id
        and by_id[s[4]][1] == "device.commit_pair"
    )
    return table, (priced_in_pair / pair_ns if pair_ns else 0.0)


def layer_metrics(spans, rounds: int, counters: dict) -> dict:
    table, overlap = summarize(spans, rounds)
    empty = {"calls": 0.0, "incl_ns": 0.0, "self_ns": 0.0, "count": 0.0}

    def row(name):
        return table.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    for metric, names in TIME_METRICS.items():
        names = (names,) if isinstance(names, str) else names
        out[metric] = (sum(row(n)["incl_ns"] for n in names) / 1e9, "s")
    for metric, name in CALL_METRICS.items():
        out[metric] = (row(name)["calls"], "count")
    for metric, name in COUNT_METRICS.items():
        unit = "bytes" if metric == "checkpoint.bytes" else "count"
        out[metric] = (row(name)["count"], unit)
    for metric in COUNTER_METRICS:
        unit = "ratio" if metric == "service.served_without_engine" else (
            "bytes" if metric == "halo.bytes_modeled" else "count")
        out[metric] = (float(counters.get(metric, 0.0)), unit)
    out["engine.loop_self_s"] = (row("engine.loop")["self_ns"] / 1e9, "s")
    txn = row("timing.price")["count"]
    out["timing.ns_per_txn"] = (row("timing.price")["incl_ns"] / txn if txn else 0.0,
                                "ns/txn")
    out["device.pair_overlap"] = (overlap, "ratio")
    batches = row("service.engine")["calls"]
    out["service.batch_size_mean"] = (
        row("service.engine")["count"] / batches if batches else 0.0, "count")
    return out


def layer_table(spans, rounds: int, round_s: float) -> str:
    table, _ = summarize(spans, rounds)
    lines = [f"{'layer span':24} {'calls/round':>12} {'incl s':>9} {'self s':>9} "
             f"{'self %':>7} {'count':>14}"]
    for name, r in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        share = 100.0 * r["self_ns"] / 1e9 / round_s if round_s else 0.0
        lines.append(f"{name:24} {r['calls']:12.1f} {r['incl_ns'] / 1e9:9.4f} "
                     f"{r['self_ns'] / 1e9:9.4f} {share:6.1f}% {r['count']:14.1f}")
    return "\n".join(lines)
