"""Graceful-degradation chains: every fallback is recorded and provably
harmless — degraded runs return byte-identical colors wherever the
fallback target is deterministic.

Chains under test (see docs/ROBUSTNESS.md):

* mex kernel: bitmask → sort on word-budget overflow
* scheduler: process pool → fault-free serial pass on exhausted retries
* result cache: corrupt disk entry → quarantined miss → clean recompute
* sharded: shard failures → one unsharded sequential run;
  Jacobi resolution → sequential sweep on the round cap
"""

import multiprocessing

import numpy as np
import pytest

from repro import color_graph, rmat_er
from repro.faults import resolve_robustness
from repro.graph.builder import complete_graph
from repro.parallel import (
    ColorJob,
    JobFailure,
    ProcessPoolScheduler,
    ResultCache,
    ShardedColoringError,
    color_sharded,
)
from repro.parallel.scheduler import run_jobs

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="pool degradation tests rely on cheap fork workers"
)


def _chains(result):
    return [d["chain"] for d in result.robustness["degradations"]]


# ---------------------------------------------------------------------------
# mex: bitmask → sort on word-budget overflow.  The chain exists on the
# NumPy tier only (the C tier's mex has no word budget), so these pin it.
# ---------------------------------------------------------------------------
def test_mex_overflow_degrades_to_sort_byte_identically(numpy_tier):
    g = complete_graph(70)  # 70 colors ≫ one 32-color bitmask word
    healthy = color_graph(g, "data-ldg")
    degraded = color_graph(g, "data-ldg", mex="bitmask:1", health="default")
    assert np.array_equal(healthy.colors, degraded.colors)
    assert degraded.num_colors == 70
    events = degraded.robustness["degradations"]
    mex = [d for d in events if d["chain"] == "mex"]
    assert mex and mex[0]["from"] == "bitmask" and mex[0]["to"] == "sort"
    assert mex[0]["reason"] == "word-budget-overflow"


def test_mex_overflow_unobserved_without_a_bundle(numpy_tier):
    g = complete_graph(70)
    result = color_graph(g, "data-ldg", mex="bitmask:1")  # no faults/health
    assert result.robustness is None  # silent, zero-overhead routing
    assert result.num_colors == 70


# ---------------------------------------------------------------------------
# scheduler: pool retries exhausted → fault-free serial healing pass.
# ---------------------------------------------------------------------------
@fork_only
def test_pool_degrades_to_serial_byte_identically():
    jobs = [
        ColorJob(rmat_er(scale=8, seed=s), "data-ldg", {}) for s in (31, 32)
    ]
    healthy = [color_graph(j.graph, j.method) for j in jobs]
    rb = resolve_robustness("seed=2; job-error: job=0", None)  # every attempt
    results = run_jobs(
        jobs,
        scheduler=ProcessPoolScheduler(2, retries=1, backoff_s=0.0),
        backend="gpusim", faults=rb,
    )
    assert all(not isinstance(r, JobFailure) for r in results)
    for r, h in zip(results, healthy):
        assert np.array_equal(r.colors, h.colors)
    events = rb.report()["degradations"]
    sched = [d for d in events if d["chain"] == "scheduler"]
    assert sched and sched[0]["from"] == "process" and sched[0]["to"] == "serial"
    assert sched[0]["reason"] == "retries-exhausted"


@fork_only
def test_strict_policy_keeps_the_pool_failure():
    jobs = [ColorJob(rmat_er(scale=8, seed=31), "data-ldg", {})]
    results = run_jobs(
        jobs,
        scheduler=ProcessPoolScheduler(2, retries=1, backoff_s=0.0),
        backend="gpusim",
        faults="seed=2; job-error: job=0", health="strict",
    )
    assert isinstance(results[0], JobFailure)
    assert results[0].attempts == 2


# ---------------------------------------------------------------------------
# cache: injected disk corruption → quarantined miss → clean recompute.
# ---------------------------------------------------------------------------
def test_cache_corrupt_entry_quarantined_and_recomputed(tmp_path):
    jobs = [ColorJob(rmat_er(scale=8, seed=41), "data-ldg", {})]
    healthy = color_graph(jobs[0].graph, "data-ldg")

    first_cache = ResultCache(directory=tmp_path)
    run_jobs(jobs, cache=first_cache, faults="seed=3; cache-corrupt: job=0")
    # The stored entry was overwritten with garbage after the put.
    assert list(tmp_path.glob("*.npz"))

    rb = resolve_robustness(None, "default")
    fresh = ResultCache(directory=tmp_path)
    (result,) = run_jobs(jobs, cache=fresh, faults=rb)
    assert not isinstance(result, JobFailure)
    assert not result.cache_hit  # the corrupt entry must NOT hit
    assert np.array_equal(result.colors, healthy.colors)
    assert fresh.quarantined == 1
    assert list(tmp_path.glob("*.npz.bad"))
    cache_events = [
        d for d in rb.report()["degradations"] if d["chain"] == "cache"
    ]
    assert cache_events and cache_events[0]["reason"] == "corrupt-entry"

    # The quarantine rewrote cleanly: a third pass is a genuine hit.
    (hit,) = run_jobs(jobs, cache=fresh)
    assert hit.cache_hit
    assert np.array_equal(hit.colors, healthy.colors)


# ---------------------------------------------------------------------------
# sharded: shard failures → one unsharded run; Jacobi cap → sweep.
# ---------------------------------------------------------------------------
def test_sharded_degrades_to_unsharded_byte_identically():
    g = rmat_er(scale=8, seed=51)
    healthy = color_graph(g, "data-ldg")
    result = color_sharded(
        g, "data-ldg", num_shards=3,
        faults="seed=4; job-error:",  # every shard job, every attempt
    )
    assert np.array_equal(result.colors, healthy.colors)
    stats = result.shard_stats
    assert stats["degraded"] == "unsharded"
    assert stats["failed_shards"] == [0, 1, 2]
    assert "sharded" in _chains(result)


def test_sharded_strict_raises_instead():
    g = rmat_er(scale=8, seed=51)
    with pytest.raises(ShardedColoringError):
        color_sharded(
            g, "data-ldg", num_shards=3,
            faults="seed=4; job-error:", health="strict",
        )


def test_jacobi_round_cap_falls_back_to_sequential_sweep():
    g = complete_graph(8)  # shards collide on every cross edge
    result = color_sharded(
        g, "data-ldg", num_shards=2, max_resolution_rounds=0,
        health="default",
    )
    result.validate(g)
    stats = result.shard_stats
    assert stats["fallback"] is True
    events = [
        d for d in result.robustness["degradations"] if d["chain"] == "sharded"
    ]
    assert events and events[0]["reason"] == "round-cap"
    assert events[0]["to"] == "sequential-sweep"


def test_healthy_sharded_run_with_bundle_records_nothing():
    g = rmat_er(scale=8, seed=51)
    plain = color_sharded(g, "data-ldg", num_shards=3)
    guarded = color_sharded(g, "data-ldg", num_shards=3, health="default")
    assert np.array_equal(plain.colors, guarded.colors)
    assert guarded.robustness["degradations"] == []
    assert plain.robustness is None
