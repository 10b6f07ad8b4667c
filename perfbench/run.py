"""Host-cost benchmark of the coloring simulator: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference     # only when the model is meant to change

The benchmark times the *host* clock on the default ``gpusim`` backend.
Simulated outputs (``total_time_us``, iterations, colors, shard counters)
are checked, never timed: exactly against ``reference.json`` and against
checks the benchmark computes itself.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the run alternates untraced and traced rounds and reports
the per-layer metrics of :mod:`tracing` instead.  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SUITE_SCALE_DIV = 256      # suite graphs of 4-6k vertices: many small launches
PART_SCALE = 17            # partitioned R-MAT-G: 131072 vertices
PART_PIECES = 4
PART_TOPOLOGY = "ring"
PART_METHOD = "data-ldg"
PART_EDIT_BLOCK = 4096     # the edits' subgraph: the first vertex block
PART_EDITS = 1000          # single edits per round, 200 after each coloring path
PART_PATHS = ("color_graph", "sharded", "streamed",
              "distributed-speculative", "distributed-lockstep")
SERVICE_POOL = 40          # small R-MAT graphs the requests draw from
SERVICE_METHODS = ("data-ldg", "topo-ldg", "3step-gm")
SERVICE_REQUESTS = 180     # per round: every (graph, method) pair once, every third repeats
SERVICE_REPEAT_WINDOW = 64  # repeats stay inside the 128-entry result cache
SERVICE_PRIORITIES = ("interactive", "normal", "batch")  # one request caller each
SUITE_EDITS = 600          # single edits per round, 100 after every 7 cells
SERVICE_EDITS = 60
EDIT_THINK_S = 0.05        # the session user's pause between edits, so edits meet traffic
SHARD_COUNTERS = ("resolution_rounds", "recolored", "boundary_vertices", "sync_rounds",
                  "halo_bytes_modeled", "speculation_hits", "halo_messages", "fallback")


def _since_process_start() -> float:
    """Seconds between this process's start and now (10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


STARTUP_S = _since_process_start()


def setup_elapsed() -> float:
    return STARTUP_S + (time.perf_counter() - T0)


def _import_program():
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {ROOT / 'src'}; "
                 "run from the repository root")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # no outside cache, scale or JIT switches
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


_import_program()

import numpy as np  # noqa: E402

from repro import (EVALUATED_SCHEMES, RunConfig, color_distributed,  # noqa: E402
                   color_graph, color_sharded, load_graph, rmat_er, rmat_g)
from repro.coloring.base import ColoringResult  # noqa: E402
from repro.coloring.dynamic import DynamicColoring  # noqa: E402
from repro.graph.generators.suite import SUITE_ORDER  # noqa: E402
from repro.graph.io.stream import read_csr_bin, write_csr_bin  # noqa: E402
from repro.parallel.streaming import color_streamed  # noqa: E402
from repro.service import ColoringService  # noqa: E402

import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# Checks computed apart from the program
# ---------------------------------------------------------------------------
def colors_sha(colors) -> str:
    return hashlib.sha256(np.ascontiguousarray(colors, dtype=np.int32).tobytes()).hexdigest()[:16]


def sim_record(result) -> dict:
    """The simulated outputs one operation is compared on, exactly."""
    rec = {"total_time_us": float(result.total_time_us),
           "iterations": int(result.iterations),
           "num_colors": int(result.num_colors),
           "colors_sha": colors_sha(result.colors)}
    stats = result.shard_stats or {}
    for key in SHARD_COUNTERS:
        if key in stats:
            rec[key] = int(stats[key])
    return rec


def _csr(graph):
    return (np.asarray(graph.row_offsets, dtype=np.int64),
            np.asarray(graph.col_indices, dtype=np.int64))


def check_coloring(graph, colors, label: str, greedy: bool = True) -> list[str]:
    """Complete, proper and (``greedy``) within deg+1, over CSR arrays."""
    ptr, idx = _csr(graph)
    n = len(ptr) - 1
    colors = np.asarray(colors, dtype=np.int64)
    errors = []
    if colors.shape != (n,):
        return [f"{label}: {colors.shape} colors for {n} vertices"]
    if n and colors.min() < 1:
        errors.append(f"{label}: {int((colors < 1).sum())} vertices uncolored")
    deg = np.diff(ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    clashes = int(np.count_nonzero(colors[src] == colors[idx]))
    if clashes:
        errors.append(f"{label}: {clashes // 2} edges join equal colors")
    if greedy and np.any(colors > deg + 1):
        errors.append(f"{label}: a color exceeds deg(v)+1")
    return errors


def first_fit(graph) -> np.ndarray:
    """Greedy first-fit coloring in natural vertex order."""
    ptr, idx = (a.tolist() for a in _csr(graph))
    colors = [0] * (len(ptr) - 1)
    for v in range(len(colors)):
        used = {colors[u] for u in idx[ptr[v]:ptr[v + 1]]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return np.asarray(colors, dtype=np.int64)


class EdgeModel:
    """The benchmark's own edge set: the CSR edges plus edits."""

    def __init__(self, graph) -> None:
        self.ptr, self.idx = _csr(graph)
        self.added: set[tuple[int, int]] = set()
        self.removed: set[tuple[int, int]] = set()

    def has(self, u: int, v: int) -> bool:
        key = (min(u, v), max(u, v))
        if key in self.added:
            return True
        if key in self.removed:
            return False
        return bool(np.any(self.idx[self.ptr[u]:self.ptr[u + 1]] == v))

    def apply(self, edit) -> None:
        kind, u, v = edit
        key = (min(u, v), max(u, v))
        grow, shrink = (self.added, self.removed) if kind == "insert" else (
            self.removed, self.added)
        if key in shrink:
            shrink.discard(key)
        else:
            grow.add(key)

    def neighbors(self, v: int) -> np.ndarray:
        row = [u for u in self.idx[self.ptr[v]:self.ptr[v + 1]].tolist()
               if (min(u, v), max(u, v)) not in self.removed]
        row += [b if a == v else a for a, b in self.added if v in (a, b)]
        return np.asarray(row, dtype=np.int64)


def make_edits(graph, count: int, rng) -> list[tuple]:
    """Alternating inserts of absent edges and deletes of present ones."""
    model = EdgeModel(graph)
    n = len(model.ptr) - 1
    edits: list[tuple] = []
    while len(edits) < count:
        if len(edits) % 2 == 0:
            u, v = (int(x) for x in rng.integers(n, size=2))
            edit = ("insert", u, v)
            if u == v or model.has(u, v):
                continue
        else:
            e = int(rng.integers(len(model.idx)))
            u = int(np.searchsorted(model.ptr, e, side="right") - 1)
            v = int(model.idx[e])
            edit = ("delete", u, v)
            if not model.has(u, v):
                continue
        edits.append(edit)
        model.apply(edit)
    return edits


class EditLog:
    """A session's start coloring plus each edit's color changes, as diffs,
    so long edit streams on large graphs stay small in memory."""

    def __init__(self, start) -> None:
        self.start = np.array(start)
        self.diffs: list[tuple[np.ndarray, np.ndarray]] = []
        self._prev = self.start

    def add(self, colors) -> None:
        changed = np.flatnonzero(colors != self._prev)
        self.diffs.append((changed, colors[changed]))
        self._prev = colors


def check_edits(graph, edits, log: EditLog) -> list[str]:
    """Proper after every edit, against the benchmark's own edge set.

    Only vertices whose color changed and the edit's endpoints can break
    a coloring that was proper before the edit; the final coloring is
    also checked over every edge.
    """
    model = EdgeModel(graph)
    cols = log.start.astype(np.int64)
    errors = check_coloring(graph, cols, "session start", greedy=False)
    for step, (edit, (changed, values)) in enumerate(zip(edits, log.diffs)):
        model.apply(edit)
        cols[changed] = values
        for x in set(changed.tolist()) | {edit[1], edit[2]}:
            if cols[x] < 1 or np.any(cols[model.neighbors(x)] == cols[x]):
                errors.append(f"edit {step} {edit}: vertex {x} improper")
                break
    n = len(model.ptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(model.ptr))
    removed = [a * n + b for a, b in model.removed] + [b * n + a for a, b in model.removed]
    keep = ~np.isin(src * n + model.idx, np.array(removed, dtype=np.int64))
    added = np.array(sorted(model.added), dtype=np.int64).reshape(-1, 2)
    s = np.concatenate([src[keep], added[:, 0]])
    d = np.concatenate([model.idx[keep], added[:, 1]])
    if log.diffs and np.any(cols[s] == cols[d]):
        errors.append("final session coloring improper")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass
class Round:
    """What one pass over a workload's operations produced."""

    op_latency: list = field(default_factory=list)    # seconds per operation
    edit_latency: list = field(default_factory=list)  # seconds per edit
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)       # (ref key, graph, method, result)
    edit_runs: list = field(default_factory=list)     # (graph, edits, EditLog)
    counters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _attempt(rnd: Round, fn, *args, **kwargs):
    """One timed operation; a raised error counts it as failed."""
    rnd.attempted += 1
    t = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # counted, reported, and the round goes on
        rnd.failed += 1
        print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
        return None
    rnd.op_latency.append(time.perf_counter() - t)
    return out


def _edits_failed(rnd: Round, why, remaining: int) -> None:
    """A failed edit ends its stream: it and every later edit count as failed."""
    rnd.attempted += remaining
    rnd.failed += remaining
    print(f"perfbench: edit stream stopped: {why!r}", file=sys.stderr)


class EditStream:
    """A dynamic coloring opened on ``start`` that applies ``edits`` one by
    one, in chunks spread over the round: a single burst of sub-millisecond
    edits lasts a few tens of milliseconds, and its median then follows the
    host's speed in that one window."""

    def __init__(self, rnd: Round, graph, start, edits) -> None:
        self.rnd, self.graph, self.edits = rnd, graph, edits
        self.pos = 0
        if start is None:
            self._stop("no start coloring")
            return
        self.dyn = DynamicColoring(graph, start, method=start.scheme)
        self.log = EditLog(start.colors)

    def _stop(self, why) -> None:
        _edits_failed(self.rnd, why, len(self.edits) - self.pos)
        self.pos = len(self.edits)

    def step(self, count: int) -> None:
        """Apply the next ``count`` edits (all that are left at the end)."""
        while count > 0 and self.pos < len(self.edits):
            edit = self.edits[self.pos]
            t = time.perf_counter()
            try:
                res = self.dyn.apply([edit])
            except Exception as exc:
                return self._stop(exc)
            self.rnd.edit_latency.append(time.perf_counter() - t)
            self.rnd.attempted += 1
            self.log.add(res.colors)
            self.pos += 1
            count -= 1
            if self.pos == len(self.edits):
                self.rnd.edit_runs.append((self.graph, self.edits, self.log))


class SuiteSweep:
    """The seven evaluated schemes on the six suite graphs, serially."""

    name = "suite-sweep"

    def __init__(self, seed: int, work: Path) -> None:
        self.graphs = suite_graphs()
        rng = np.random.default_rng(seed)
        cells = [(g, m) for g in SUITE_ORDER for m in EVALUATED_SCHEMES]
        self.cells = [cells[i] for i in rng.permutation(len(cells))]
        self.edits = make_edits(self.graphs["rmat-g"], SUITE_EDITS, rng)
        self.first_fit = {"rmat-g": first_fit(self.graphs["rmat-g"])}
        # The edit stream starts from the benchmark's own first-fit of
        # rmat-g, which the check below holds equal to `sequential`.
        self.edit_start = ColoringResult(colors=self.first_fit["rmat-g"], scheme="sequential")

    def round(self) -> Round:
        rnd = Round()
        stream = EditStream(rnd, self.graphs["rmat-g"], self.edit_start, self.edits)
        chunk = -(-len(self.edits) // len(SUITE_ORDER))
        for i, (gname, method) in enumerate(self.cells):
            res = _attempt(rnd, color_graph, self.graphs[gname], method)
            if res is not None:
                rnd.records.append((f"suite-sweep/{gname}/{method}",
                                    self.graphs[gname], method, res))
            if (i + 1) % len(EVALUATED_SCHEMES) == 0:
                stream.step(chunk)
        stream.step(len(self.edits))
        return rnd

    def check(self, rnd: Round, reference: dict) -> list[str]:
        errors = []
        for key, graph, method, res in rnd.records:
            if method == "sequential":
                gname = key.split("/")[1]
                if gname not in self.first_fit:
                    self.first_fit[gname] = first_fit(graph)
                if not np.array_equal(res.colors, self.first_fit[gname]):
                    errors.append(f"{key}: differs from first-fit in natural order")
        return errors


class ServiceMixed:
    """Closed loop of request callers plus one editing session."""

    name = "service-mixed"

    def __init__(self, seed: int, work: Path) -> None:
        self.pool, self.session_graph = service_graphs()
        self.seed = seed
        self.rounds = 0
        self.keys = ({(gi, m) for gi in range(SERVICE_POOL) for m in SERVICE_METHODS}
                     | {("session", "data-ldg")})
        self.edits = make_edits(self.session_graph, SERVICE_EDITS,
                                np.random.default_rng(seed))

    def request_stream(self, rng) -> list[tuple[int, str]]:
        """Every (graph, method) pair once, in seeded order; every third
        request repeats one of the last fresh pairs."""
        pairs = [(gi, m) for gi in range(SERVICE_POOL) for m in SERVICE_METHODS]
        fresh = iter(rng.permutation(len(pairs)).tolist())
        used: list[tuple[int, str]] = []
        requests = []
        for i in range(SERVICE_REQUESTS):
            if i % 3 == 2:
                window = used[-SERVICE_REPEAT_WINDOW:]
                pair = window[int(rng.integers(len(window)))]
            else:
                pair = pairs[next(fresh)]
                used.append(pair)
            requests.append(pair)
        return requests

    def graph(self, gi):
        return self.session_graph if gi == "session" else self.pool[gi]

    def round(self) -> Round:
        return asyncio.run(self._round())

    async def _round(self) -> Round:
        rnd = Round()
        # batch_max=1: a multi-job engine batch prices later jobs with
        # launch-counter-shifted seeds (see CHANGES.md), so its simulated
        # times would differ from a direct color_graph now and then.
        service = ColoringService(config=RunConfig(workers=2, store="shm"), batch_max=1)
        await service.start()
        try:
            # A fresh order each round (seeded by seed and round), so a run's
            # tail latency averages over several orders, not one.
            stream = iter(self.request_stream(np.random.default_rng([self.seed, self.rounds])))
            self.rounds += 1
            responses = []

            async def caller(priority):
                for gi, method in stream:
                    rnd.attempted += 1
                    t = time.perf_counter()
                    try:
                        res = await service.submit(self.pool[gi], method, priority=priority)
                    except Exception as exc:
                        rnd.failed += 1
                        print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
                        continue
                    rnd.op_latency.append(time.perf_counter() - t)
                    responses.append((gi, method, res))

            async def editor():
                session = await service.session(self.session_graph, method="data-ldg")
                start = await session.result()
                rnd.extra["session_start"] = (self.session_graph, start.colors)
                log = EditLog(start.colors)
                for i, edit in enumerate(self.edits):
                    t = time.perf_counter()
                    try:
                        res = await session.apply([edit])
                    except Exception as exc:
                        return _edits_failed(rnd, exc, len(self.edits) - i)
                    rnd.edit_latency.append(time.perf_counter() - t)
                    rnd.attempted += 1
                    log.add(res.colors)
                    await asyncio.sleep(EDIT_THINK_S)
                rnd.edit_runs.append((self.session_graph, self.edits, log))

            await asyncio.gather(*(caller(p) for p in SERVICE_PRIORITIES), editor())
        finally:
            await service.close()
        stats = service.stats
        completed = max(stats["completed"], 1)
        rnd.counters = {
            "service.engine_runs": stats["engine_runs"],
            "service.served_without_engine":
                (stats["cache_hits"] + stats["coalesced"]) / completed,
        }
        rnd.extra.update(stats=stats, responses=responses)
        for gi, method, res in responses:
            rnd.records.append((f"service-mixed/{gi}/{method}", self.graph(gi), method, res))
        return rnd

    def check(self, rnd: Round, reference: dict) -> list[str]:
        # Every response already met its reference entry in check_round,
        # and write_reference builds those entries from direct color_graph
        # runs: so each response equals a direct color_graph of its input.
        errors = []
        stats = rnd.extra["stats"]
        if stats["engine_runs"] != len(self.keys):
            errors.append(f"engine_runs {stats['engine_runs']} != "
                          f"{len(self.keys)} distinct (graph, method) keys")
        if stats["failed"] or stats["rejected"]:
            errors.append(f"service failed {stats['failed']}, rejected {stats['rejected']}")
        if "session_start" in rnd.extra:
            # The session's snapshot carries no simulated time: colors only.
            graph, colors = rnd.extra["session_start"]
            want = reference["service-mixed/session/data-ldg"]
            errors += check_coloring(graph, colors, "session start")
            if colors_sha(colors) != want["colors_sha"]:
                errors.append("session start differs from direct color_graph")
        return errors


class Partitioned:
    """One large skewed graph, unpartitioned and by four partitioned paths."""

    name = "partitioned"

    def __init__(self, seed: int, work: Path) -> None:
        self.graph = partitioned_graph()
        self.work = work
        path = write_csr_bin(self.graph, work / "graph.csrbin")
        self.streamed_graph = read_csr_bin(path)
        # Edits go to the induced subgraph of the first block: on the whole
        # graph every edit copies the 512 KB color array, and its time then
        # swung 2x between runs with the allocator's state.
        self.block = self.graph.subgraph_mask(np.arange(self.graph.num_vertices) < PART_EDIT_BLOCK)
        self.edits = make_edits(self.block, PART_EDITS, np.random.default_rng(seed))

    def run_path(self, path: str):
        g, m, p = self.graph, PART_METHOD, PART_PIECES
        if path == "color_graph":
            return color_graph(g, m)
        if path == "sharded":
            return color_sharded(g, m, num_shards=p, workers=2, store="shm")
        if path == "streamed":
            return color_streamed(self.streamed_graph, m, num_windows=p,
                                  checkpoint=self.work / "streamed.ckpt")
        if path == "distributed-speculative":
            return color_distributed(g, m, devices=p, topology=PART_TOPOLOGY,
                                     transport="pool", workers=2,
                                     checkpoint=self.work / "distributed.ckpt")
        if path == "distributed-lockstep":
            return color_distributed(g, m, devices=p, topology=PART_TOPOLOGY,
                                     transport="local", speculate=False)
        raise ValueError(path)

    def round(self) -> Round:
        rnd = Round()
        results = {}
        stream = None
        chunk = -(-len(self.edits) // len(PART_PATHS))
        for path in PART_PATHS:
            res = _attempt(rnd, self.run_path, path)
            if res is not None:
                results[path] = res
                rnd.records.append((f"partitioned/{path}",
                                    self.graph, PART_METHOD, res))
            if stream is None:  # opened on the first path's (color_graph) result
                start = None if res is None else ColoringResult(
                    colors=res.colors[:PART_EDIT_BLOCK], scheme=res.scheme)
                stream = EditStream(rnd, self.block, start, self.edits)
            stream.step(chunk)
        stream.step(len(self.edits))
        dist = [results[p].shard_stats for p in PART_PATHS[3:] if p in results]
        rnd.counters = {
            "halo.sync_rounds": sum(s["sync_rounds"] for s in dist),
            "halo.bytes_modeled": sum(s["halo_bytes_modeled"] for s in dist),
            "halo.speculation_hits": sum(s["speculation_hits"] for s in dist),
        }
        rnd.extra = {"results": results}
        return rnd

    def check(self, rnd: Round, reference: dict) -> list[str]:
        results = rnd.extra["results"]
        if set(results) != set(PART_PATHS):
            return []  # the failed operation is already counted
        errors = []
        base = results["sharded"].colors
        for path in PART_PATHS[1:]:
            res = results[path]
            if not np.array_equal(res.colors, base):
                errors.append(f"{path} colors differ from sharded")
            if res.shard_stats["fallback"]:
                errors.append(f"{path} fell back to the sequential sweep")
        spec = results["distributed-speculative"].shard_stats
        lock = results["distributed-lockstep"].shard_stats
        if spec["sync_rounds"] + spec["speculation_hits"] != lock["sync_rounds"]:
            errors.append("speculative sync_rounds + speculation_hits != lockstep sync_rounds")
        return errors


WORKLOAD_CLASSES = {w.name: w for w in (SuiteSweep, ServiceMixed, Partitioned)}


def suite_graphs() -> dict:
    """The six Table I graphs at ``SUITE_SCALE_DIV`` (generator seed 7)."""
    return {name: load_graph(name, scale_div=SUITE_SCALE_DIV) for name in SUITE_ORDER}


def partitioned_graph():
    return rmat_g(scale=PART_SCALE, edge_factor=10.0, seed=21)


def service_graphs():
    """The fixed request pool (R-MAT-ER/G, 256-1024 vertices) and session graph."""
    pool = []
    for gi in range(SERVICE_POOL):
        gen = rmat_er if gi % 2 == 0 else rmat_g
        pool.append(gen(scale=8 + gi % 3, edge_factor=8.0, seed=100 + gi))
    return pool, rmat_g(scale=11, edge_factor=8.0, seed=99)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------
def check_round(workload, rnd: Round, reference: dict) -> list[str]:
    errors = []
    for key, graph, method, res in rnd.records:
        errors += check_coloring(graph, res.colors, key, greedy=method != "csrcolor")
        want = reference.get(key)
        got = sim_record(res)
        if want is None:
            errors.append(f"{key}: no reference entry")
        elif got != want:
            diff = {k: (got.get(k), want.get(k)) for k in set(got) | set(want)
                    if got.get(k) != want.get(k)}
            errors.append(f"{key}: simulated outputs differ from reference {diff}")
    for graph, edits, log in rnd.edit_runs:
        errors += check_edits(graph, edits, log)
    return errors + workload.check(rnd, reference)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@contextlib.contextmanager
def _workdir():
    """A per-process scratch directory under ``OUT``, removed on exit."""
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args) -> dict:
    with _workdir() as work:
        return _run(args, work)


def _run(args, work: Path) -> dict:
    recorder = tracing.SpanRecorder(work) if args.trace else None
    try:
        if recorder is not None:
            recorder.install()
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work)
        setup_s = setup_elapsed()
        if recorder is not None:
            recorder.uninstall()
        # One untimed warm-up round, outside setup_s too: lazy imports,
        # first-touch memory and process-level caches are paid here, once.
        warmup = workload.round()
        errors = check_round(workload, warmup, reference)
        rounds: list[tuple[bool, float, Round]] = []
        timed = 0.0
        while True:
            # Traced mode alternates traced and untraced rounds, traced first.
            traced = recorder is not None and len(rounds) % 2 == 0
            if traced:
                recorder.phase = f"round-{len(rounds)}"
                recorder.install()
            t = time.perf_counter()
            rnd = workload.round()
            wall = time.perf_counter() - t
            if traced:
                recorder.uninstall()
                recorder.collect_workers()
            timed += wall
            rounds.append((traced, wall, rnd))
            errors += check_round(workload, rnd, reference)
            if timed >= args.seconds and (recorder is None or len(rounds) >= 2):
                break
    finally:
        if recorder is not None:
            recorder.uninstall()

    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    attempted = warmup.attempted + sum(r.attempted for _, _, r in rounds)
    failed = warmup.failed + sum(r.failed for _, _, r in rounds)
    plain = [(w, r) for traced, w, r in rounds if not traced]
    if recorder is None:
        ops = [x for _, r in plain for x in r.op_latency]
        edits = [x for _, r in plain for x in r.edit_latency]
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(w for w, _ in plain), "s"),
            "peak_rss_mb": (rss, "MB"),
            "req_per_s": (statistics.median(len(r.op_latency) / w for w, r in plain),
                          "requests/s"),
            "latency_p50_ms": (_percentile(ops, 50) * 1e3, "ms"),
            "latency_p95_ms": (_percentile(ops, 95) * 1e3, "ms"),
            "edit_p50_ms": (_percentile(edits, 50) * 1e3, "ms"),
        }
        print(f"perfbench: {args.workload} seed {args.seed}: rounds "
              f"{[round(w, 3) for w, _ in plain]} s, {len(ops)} operations, "
              f"{len(edits)} edits", file=sys.stderr)
    else:
        traced_rounds = [(w, r) for traced, w, r in rounds if traced]
        n = len(traced_rounds)
        counters = {}
        for _, r in traced_rounds:
            for k, v in r.counters.items():
                counters[k] = counters.get(k, 0.0) + v / n
        metrics = tracing.layer_metrics(recorder.spans, n, counters)
        traced_s = statistics.median(w for w, _ in traced_rounds)
        plain_s = statistics.median(w for w, _ in plain)
        metrics["tracing.overhead"] = (traced_s / plain_s - 1.0, "ratio")
        print(tracing.layer_table(recorder.spans, n, traced_s))
        print(f"traced round {traced_s:.3f} s, untraced round {plain_s:.3f} s, "
              f"overhead {100 * (traced_s / plain_s - 1):.1f}%")
        write_spans(recorder.spans, args)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def write_spans(spans, args) -> None:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    keys = ("id", "name", "start_ns", "end_ns", "parent", "thread", "count", "phase")
    with open(path, "w") as fh:
        json.dump([dict(zip(keys, s)) for s in spans], fh)
    print(f"spans: {path.relative_to(ROOT)}")


def write_reference() -> None:
    """Regenerate reference.json from direct runs of every operation."""
    ref: dict[str, dict] = {}
    with _workdir() as work:
        graphs = suite_graphs()
        for gname in SUITE_ORDER:
            for method in EVALUATED_SCHEMES:
                ref[f"suite-sweep/{gname}/{method}"] = sim_record(color_graph(graphs[gname], method))
        part = Partitioned(0, work)
        for path in PART_PATHS:
            ref[f"partitioned/{path}"] = sim_record(part.run_path(path))
        pool, session = service_graphs()
        for gi, graph in enumerate(pool):
            for method in SERVICE_METHODS:
                ref[f"service-mixed/{gi}/{method}"] = sim_record(color_graph(graph, method))
        ref["service-mixed/session/data-ldg"] = sim_record(color_graph(session, "data-ldg"))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref)} entries to {REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json (only for a change meant to alter the model)")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
