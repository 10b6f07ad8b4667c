"""The run scope: one run's ambient state stays on its own thread.

Fault bundles, deadlines and the mex strategy reach
deep call sites through :mod:`repro.runscope`.  Runs on different
threads (the service's ``asyncio.to_thread`` batches and session
repairs, or plain user threads) must not see each other's scope, and
interleaved scopes must unwind to exactly what each thread had before.
"""

import asyncio
import contextvars
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import color_graph, from_edges, rmat_er, runscope
from repro.coloring.kernels import mex_strategy
from repro.compiledsim import runtime
from repro.engine import RunConfig
from repro.engine.runner import RoundLoop
from repro.faults import Robustness, resolve_robustness
from repro.gpusim.device import Device
from repro.resilience import Deadline, DeadlineExceeded, RunControl
from repro.resilience.deadline import activate_control, control_check
from repro.service import ColoringService

STALL_PLAN = "seed=1; clock-stall: param=1048576"


def _in_thread(fn):
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # surfaced to the test thread
            out["error"] = exc

    return threading.Thread(target=target), out


def _join(*pairs):
    for thread, _ in pairs:
        thread.start()
    for thread, _ in pairs:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for _, out in pairs:
        if "error" in out:
            raise out["error"]
    return [out["value"] for _, out in pairs]


# ----------------------------------------------------------- scope basics
def test_scope_restores_by_token_and_starts_empty():
    assert contextvars.Context().run(runscope.current) == runscope.RunScope()
    before = runscope.current()
    with runscope.scope(control="outer") as outer:
        assert outer.control == "outer"
        with runscope.scope(mex=("sort", 0)):
            assert runscope.current().control == "outer"
            assert runscope.current().mex == ("sort", 0)
        assert runscope.current().mex == before.mex
    assert runscope.current() == before


def test_interleaved_scopes_on_two_threads_unwind_exactly():
    """A enters, B enters, A leaves, B leaves: neither loses its own
    scope while inside it, and both end where they started."""
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = {}

    def thread_a():
        with runscope.scope(control="a"):
            a_in.set()
            assert b_in.wait(10)
        a_out.set()
        return runscope.current().control

    def thread_b():
        assert a_in.wait(10)
        with runscope.scope(control="b"):
            b_in.set()
            assert a_out.wait(10)
            seen["inside"] = runscope.current().control
        return runscope.current().control

    after_a, after_b = _join(_in_thread(thread_a), _in_thread(thread_b))
    assert seen["inside"] == "b"
    assert (after_a, after_b) == (None, None)
    assert runscope.current().control is None


def test_scopes_hold_under_thread_switch_stress():
    """More threads than cores, switching every few microseconds, each
    nesting scopes: every read sees the reading thread's own scope."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def worker(name):
            def run():
                for i in range(2000):
                    with runscope.scope(control=name):
                        with runscope.scope(mex=(name, i)):
                            assert runscope.current().control == name
                            assert runscope.current().mex == (name, i)
                        assert runscope.current().mex is None
                    assert runscope.current().control is None
                return name
            return _in_thread(run)

        names = [f"t{k}" for k in range(2 * (os.cpu_count() or 1) + 2)]
        assert _join(*(worker(name) for name in names)) == names
    finally:
        sys.setswitchinterval(previous)


def test_control_activated_on_one_thread_is_invisible_on_another():
    expired = RunControl(deadline=Deadline(0.0))
    held, checked = threading.Event(), threading.Event()

    def holder():
        with activate_control(expired):
            held.set()
            assert checked.wait(10)
            with pytest.raises(DeadlineExceeded):
                control_check("holder")
        return True

    def other():
        assert held.wait(10)
        try:
            control_check("other")  # must not see the holder's control
        finally:
            checked.set()
        return True

    assert _join(_in_thread(holder), _in_thread(other)) == [True, True]


# ----------------------------------------------- concurrent engine runs
def test_concurrent_clock_stall_stays_in_its_own_run():
    """A faulted run's clock stalls fire on its own kernels only, so a
    plain run beside it prices as it does alone (20 racing trials)."""
    graph = rmat_er(scale=10, seed=3)
    solo = color_graph(graph, "data-ldg")
    solo_faulted = color_graph(graph, "data-ldg", faults=STALL_PLAN)
    assert solo_faulted.robustness["fired"]
    for _ in range(20):
        barrier = threading.Barrier(2)

        def plain():
            barrier.wait(10)
            return color_graph(graph, "data-ldg")

        def faulted():
            barrier.wait(10)
            return color_graph(graph, "data-ldg", faults=STALL_PLAN)

        got, got_faulted = _join(_in_thread(plain), _in_thread(faulted))
        assert got.total_time_us == solo.total_time_us
        assert np.array_equal(got.colors, solo.colors)
        assert got.robustness is None
        assert got_faulted.robustness["fired"] == solo_faulted.robustness["fired"]
        assert got_faulted.total_time_us == solo_faulted.total_time_us


def test_commit_pair_pricing_threads_see_the_run_tier(monkeypatch):
    """``Device.commit_pair`` prices the second launch on a helper
    thread; it must run under the caller's scope (fault sites, deadline
    checks), and both threads price on the process's kernel tier."""
    graph = rmat_er(scale=9, seed=3)
    reference = color_graph(graph, "data-ldg")
    seen = []
    original = Device._price

    def recording(self, builder, seed):
        seen.append((threading.get_ident(), runscope.current().mex,
                     runtime.current_tier()))
        return original(self, builder, seed)

    monkeypatch.setattr(Device, "_price", recording)
    before = runscope.current().mex
    with mex_strategy("sort"):
        result = color_graph(graph, "data-ldg")
    assert result.total_time_us == reference.total_time_us
    assert {(mex, tier) for _, mex, tier in seen} == {
        (("sort", 0), runtime.current_tier())
    }
    if (os.cpu_count() or 1) > 1:
        assert len({ident for ident, _, _ in seen}) >= 2
    assert runscope.current().mex == before


# ----------------------------------------------------- service traffic
def _wide_palette_session_graph():
    """K_66: every vertex's repair sees 66 neighbor colors (> 64)."""
    u, v = np.triu_indices(66, k=1)
    return from_edges(u, v, name="k66")


def test_service_batch_scope_stays_out_of_a_concurrent_session(
    monkeypatch, numpy_tier
):
    """A faulted, deadlined batch runs while a session repairs and
    compacts: the session's mex degradations stay out of the batch's
    log, and the batch's deadline never cancels the session.  (The mex
    degradation chain exists on the NumPy tier only.)"""
    rb = resolve_robustness(STALL_PLAN, "default")
    assert isinstance(rb, Robustness)
    small = rmat_er(scale=8, seed=3)
    entered, release = threading.Event(), threading.Event()
    armed = {"on": False}
    original = RoundLoop.run

    def gated(self, *args, **kwargs):
        if armed["on"]:
            armed["on"] = False
            entered.set()
            release.wait(30)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RoundLoop, "run", gated)

    async def main():
        async with ColoringService(config=RunConfig(faults=rb)) as svc:
            session = await svc.session(_wide_palette_session_graph())
            armed["on"] = True
            batch = asyncio.ensure_future(svc.submit(small, deadline_ms=300))
            assert await asyncio.to_thread(entered.wait, 30)
            # The batch is now parked inside its run scope.  Repair a
            # vertex whose 66 neighbor colors overflow a 1-word bitmask.
            with mex_strategy("bitmask:1"):
                repaired = await session.apply(
                    [("add_vertex",)] + [("insert", 66, j) for j in range(66)]
                )
            await asyncio.sleep(0.4)  # let the batch's budget run out
            release.set()
            with pytest.raises(DeadlineExceeded):
                await batch
            compacted = await session.compact()
            return repaired, compacted, svc.stats

    start = time.monotonic()
    repaired, compacted, stats = asyncio.run(main())
    assert time.monotonic() - start < 60
    assert repaired.extra["dynamic"]["repaired"] >= 1
    assert repaired.num_colors == 67 and compacted.num_colors >= 67
    assert stats["deadline_hits"] == 1
    assert not [d for d in rb.log.report() if d["chain"] == "mex"]
