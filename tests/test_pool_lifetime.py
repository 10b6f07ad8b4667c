"""Kept worker pools and fresh-device pricing at the job boundary.

A :class:`ProcessPoolScheduler` keeps one pool across ``execute`` calls
(and a service keeps one scheduler from ``start`` to ``close``), so a
worker runs many jobs.  That is only correct because every job prices
as on a fresh device: the job boundary resets the shared context's
launch-counter seed.  These tests pin both halves: simulated times
equal a direct ``color_graph`` whatever ran before on the same context
or worker, and pools are built, recycled and reaped exactly when they
should be.
"""

import asyncio
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import color_distributed, color_graph, color_many, color_sharded
from repro.engine import RunConfig
from repro.graph.generators import rmat_er, rmat_g
from repro.parallel import ColorJob, ProcessPoolScheduler
from repro.parallel import scheduler as scheduler_mod
from repro.resilience import Cancelled
from repro.service import ColoringService

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="worker kill and monkeypatched pools rely on fork"
)


@pytest.fixture(scope="module")
def g0():
    return rmat_er(scale=8, seed=3)


@pytest.fixture(scope="module")
def g1():
    return rmat_g(scale=9, edge_factor=8, seed=101)


@pytest.fixture(scope="module")
def g1_us(g1):
    return color_graph(g1, "data-ldg").total_time_us


@pytest.fixture
def new_pools(monkeypatch):
    """Every pool a ProcessPoolScheduler builds during the test."""
    built = []
    original = ProcessPoolScheduler._new_pool

    def counting(self, backend, backend_opts):
        pool = original(self, backend, backend_opts)
        built.append(pool)
        return pool

    monkeypatch.setattr(ProcessPoolScheduler, "_new_pool", counting)
    return built


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


# ------------------------------------------------------ fresh-device pricing
@pytest.mark.parametrize("method", ["data-ldg", "topo-base", "3step-gm", "csrcolor"])
def test_shared_context_job_prices_as_on_fresh_device(g0, g1, g1_us, method):
    [_, got] = color_many([(g0, method), (g1, "data-ldg")])
    assert got.total_time_us == g1_us


@pytest.mark.parametrize("method", ["data-ldg", "topo-base", "3step-gm", "csrcolor"])
def test_pooled_jobs_price_as_on_fresh_device(g0, g1, g1_us, method):
    batch = [(g0, method), (g1, "data-ldg")] * 2
    with ProcessPoolScheduler(2) as sched:
        # The second call runs on workers the first one already used.
        for _ in range(2):
            results = color_many(batch, scheduler=sched)
            assert [r.total_time_us for r in results[1::2]] == [g1_us, g1_us]


def test_kept_cpusim_context_keeps_one_jobs_events(g0):
    """The job boundary resets a cpusim context too: a kept worker's
    multicore model holds one job's priced regions, not every job's."""
    ctx_map: dict = {}
    job = ColorJob(g0, "data-ldg", {})
    times = ("gpu_time_us", "cpu_time_us", "transfer_time_us", "total_time_us")

    def run():
        result = scheduler_mod._run_one(
            ctx_map, job, "cpusim", {}, True, False, False
        )[0]
        return result, len(ctx_map["ctx"].backend.cpu.events)

    first, events = run()
    assert events > 0
    for _ in range(49):
        result, retained = run()
        assert retained == events
        assert [getattr(result, f) for f in times] == \
            [getattr(first, f) for f in times]


def test_sharded_shard_times_identical_serial_and_pooled():
    g = rmat_g(scale=12, edge_factor=8, seed=21)
    serial = color_sharded(g, "data-ldg", num_shards=4, workers=None)
    pooled = color_sharded(g, "data-ldg", num_shards=4, workers=2)
    assert np.array_equal(serial.colors, pooled.colors)
    times = [
        [s["total_time_us"] for s in r.shard_stats["shards"]]
        for r in (serial, pooled)
    ]
    assert times[0] == times[1]


def test_service_batch_prices_like_direct_runs(g0, g1):
    methods = ["data-ldg", "topo-base", "3step-gm", "csrcolor"]
    pairs = [(g0, m) for m in methods] + [(g1, m) for m in methods]

    async def main():
        cfg = RunConfig(workers=2)
        async with ColoringService(batch_max=8, config=cfg) as svc:
            return await asyncio.gather(
                *(svc.submit(g, m) for g, m in pairs)
            ), svc.stats

    results, stats = asyncio.run(main())
    assert stats["batches"] < len(pairs)  # requests really shared a batch
    for (g, m), res in zip(pairs, results):
        assert res.total_time_us == color_graph(g, m).total_time_us, m


# ------------------------------------------------------------ pool lifetime
def _requests():
    return [(rmat_er(scale=7, seed=s), m)
            for s in (11, 12) for m in ("data-ldg", "topo-base")]


@fork_only
def test_service_builds_one_pool_for_many_requests(new_pools):
    before = multiprocessing.active_children()

    async def main():
        async with ColoringService(config=RunConfig(workers=2), batch_max=1) as svc:
            for g, m in _requests():
                res = await svc.submit(g, m)
                assert not res.cache_hit
            return svc.stats

    stats = asyncio.run(main())
    assert stats["engine_runs"] == len(_requests())
    assert len(new_pools) == 1
    assert _new_children(before) == []


@fork_only
def test_new_backend_spec_rebuilds_the_kept_pool(new_pools, g0):
    jobs = [ColorJob(g0, "data-ldg", {})]
    with ProcessPoolScheduler(2) as sched:
        gpu = sched.execute(jobs, backend="gpusim")
        again = sched.execute(jobs, backend="gpusim")
        cpu = sched.execute(jobs, backend="cpusim")
    assert len(new_pools) == 2
    assert gpu[0][0].total_time_us == again[0][0].total_time_us
    assert cpu[0][0].total_time_us == color_graph(
        g0, "data-ldg", backend="cpusim").total_time_us


@fork_only
def test_worker_crash_fault_recycles_the_service_pool(new_pools):
    requests = _requests()

    async def main():
        cfg = RunConfig(workers=2,
                        faults="seed=3; worker-crash: attempt=1, max_fires=1")
        async with ColoringService(config=cfg, batch_max=1) as svc:
            return [await svc.submit(g, m) for g, m in requests], svc

    results, svc = asyncio.run(main())
    fired = [f["site"] for f in svc._robustness.report()["fired"]]
    assert fired == ["worker-crash"]
    # The crashed first request healed on a new pool that then served
    # every later request.
    assert len(new_pools) == 2
    for (g, m), res in zip(requests, results):
        assert np.array_equal(res.colors, color_graph(g, m).colors)


@fork_only
def test_worker_killed_mid_service_run_next_request_succeeds(new_pools):
    requests = _requests()
    before = multiprocessing.active_children()

    async def main():
        async with ColoringService(config=RunConfig(workers=2), batch_max=1) as svc:
            first = await svc.submit(*requests[0])
            for proc in _new_children(before):
                os.kill(proc.pid, signal.SIGKILL)
            rest = [await svc.submit(g, m) for g, m in requests[1:]]
            return [first, *rest], svc._scheduler.pools_recycled

    results, recycled = asyncio.run(main())
    assert recycled == 1
    assert len(new_pools) == 2
    for (g, m), res in zip(requests, results):
        assert res.total_time_us == color_graph(g, m).total_time_us
    assert _new_children(before) == []


@pytest.fixture
def slow_jobs(monkeypatch):
    """Sixteen 0.1 s host jobs; workers forked after this see the method."""
    from repro.coloring import api
    from repro.coloring.base import ColoringResult

    def slow(graph, **kwargs):
        time.sleep(0.1)
        return ColoringResult(
            colors=np.arange(1, graph.num_vertices + 1, dtype=np.int32),
            scheme="slow",
        )

    monkeypatch.setitem(api.METHODS, "slow", slow)
    return [ColorJob(rmat_er(scale=6, seed=s), "slow", {}) for s in range(16)]


@fork_only
def test_early_exit_leaves_no_batch_work_in_the_kept_pool(new_pools, slow_jobs,
                                                          monkeypatch):
    # More jobs than the pool moves to its call queue, so some stay queued.
    jobs = slow_jobs
    submitted = []

    def cancel_on_first_result(robustness, report):
        raise Cancelled("caller went away")

    with ProcessPoolScheduler(2) as sched:
        sched.execute(jobs[:1])  # build the pool, then watch its submits
        real_submit = new_pools[0].submit

        def recording_submit(fn, payload):
            fut = real_submit(fn, payload)
            submitted.append(fut)
            return fut

        new_pools[0].submit = recording_submit
        with monkeypatch.context() as patch:
            patch.setattr(scheduler_mod, "_absorb_worker_report",
                          cancel_on_first_result)
            with pytest.raises(Cancelled):
                sched.execute(jobs)
        assert len(submitted) == len(jobs)
        assert all(f.done() for f in submitted)
        assert any(f.cancelled() for f in submitted)  # queued ones dropped
        outcomes = sched.execute(jobs)
    assert len(new_pools) == 1  # the pool survived the early exit
    assert all(res.scheme == "slow" for res, _, _ in outcomes)


@fork_only
def test_close_waits_for_a_running_execute(slow_jobs):
    sched = ProcessPoolScheduler(2)
    outcomes = []
    runner = threading.Thread(target=lambda: outcomes.extend(
        sched.execute(slow_jobs[:6])))
    runner.start()
    for _ in range(1000):  # once the pool exists, execute holds the lock
        if sched._pool is not None:
            break
        time.sleep(0.01)
    sched.close()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert [res.scheme for res, _, _ in outcomes] == ["slow"] * 6
    assert sched._pool is None


@fork_only
def test_concurrent_execute_calls_share_one_pool(new_pools):
    graphs = [rmat_er(scale=7, seed=s) for s in range(4)]
    want = [color_graph(g, "data-ldg").total_time_us for g in graphs]
    got: dict = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ProcessPoolScheduler(2) as sched:
            def call(i):
                [out] = sched.execute([ColorJob(graphs[i], "data-ldg", {})])
                got[i] = out[0].total_time_us

            threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert [got[i] for i in range(4)] == want
    assert len(new_pools) == 1


def test_no_worker_survives_the_public_entry_points(g0):
    before = multiprocessing.active_children()
    color_many([g0, g0], "data-ldg", workers=2)
    assert _new_children(before) == []
    color_sharded(g0, "data-ldg", num_shards=2, workers=2)
    assert _new_children(before) == []
    color_distributed(g0, "data-ldg", devices=2, transport="pool")
    assert _new_children(before) == []

    async def main():
        async with ColoringService(config=RunConfig(workers=2, store="shm")) as svc:
            await svc.submit(g0)

    asyncio.run(main())
    assert _new_children(before) == []
