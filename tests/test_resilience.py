"""The resilience tier: deadlines, cancellation, checkpoints, breakers.

Unit coverage for :mod:`repro.resilience` plus the integration contracts
the tier promises: a deadline is enforced at every layer's cooperative
boundary with queued-vs-running attribution, a killed-and-resumed run is
byte-identical to an uninterrupted one, and seeded halo/transport faults
heal back to digest equality through declared degradation chains.
"""

import numpy as np
import pytest

from repro import color_graph, rmat_er
from repro.distributed import color_distributed
from repro.faults import resolve_robustness
from repro.parallel import ColorJob, color_sharded
from repro.parallel.scheduler import run_jobs
from repro.parallel.streaming import color_streamed
from repro.resilience import (
    Cancelled,
    CancelToken,
    Checkpointer,
    CheckpointError,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    RunControl,
    load_resume,
    activate_control,
    control_check,
    read_checkpoint,
    resolve_control,
    run_fingerprint,
    write_checkpoint,
)


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=8, seed=9)


@pytest.fixture(scope="module")
def healthy(g):
    return color_graph(g, "data-ldg")


# ---------------------------------------------------------------- units
class _FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


def test_deadline_attribution_queued_vs_running():
    clock = _FakeClock()
    d = Deadline(50.0, queued_ms=30.0, clock=clock)
    clock.t += 0.015  # 15 ms of running
    assert d.running_ms() == pytest.approx(15.0)
    assert d.elapsed_ms() == pytest.approx(45.0)
    assert d.remaining_ms() == pytest.approx(5.0)
    assert not d.expired
    d.check("round")  # within budget: no raise
    clock.t += 0.010
    assert d.expired
    with pytest.raises(DeadlineExceeded) as exc:
        d.check("sync-round")
    err = exc.value.to_dict()
    assert err["error"] == "DeadlineExceeded"
    assert err["where"] == "sync-round"
    assert err["queued_ms"] == pytest.approx(30.0)
    assert err["running_ms"] == pytest.approx(25.0)


def test_deadline_rejects_negative_budget():
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_cancel_token_is_cooperative():
    token = CancelToken()
    token.check("round")  # not cancelled: no raise
    token.cancel("all-waiters-abandoned")
    assert token.cancelled
    with pytest.raises(Cancelled) as exc:
        token.check("window")
    assert exc.value.reason == "all-waiters-abandoned"
    assert exc.value.where == "window"
    assert exc.value.to_dict()["error"] == "Cancelled"


def test_run_control_ship_round_trips_attribution():
    clock = _FakeClock()
    control = RunControl(
        deadline=Deadline(200.0, queued_ms=25.0, clock=clock))
    clock.t += 0.040
    shipped = control.ship()
    rebuilt = RunControl.from_shipped(shipped)
    # The worker-side control keeps end-to-end accounting: queued time
    # and the running time already burned upstream both carry over.
    assert rebuilt.deadline.queued_ms == pytest.approx(25.0)
    assert rebuilt.deadline.running_ms() == pytest.approx(40.0, abs=5.0)
    assert RunControl.from_shipped(None) is None
    assert RunControl(deadline=None).ship() is None


def test_resolve_control_passthrough_and_none():
    assert resolve_control(None) is None
    ready = RunControl(deadline=Deadline(10.0))
    assert resolve_control(ready) is ready
    fresh = resolve_control(75.0)
    assert fresh.deadline.deadline_ms == 75.0
    token_only = resolve_control(None, token=CancelToken())
    assert token_only.deadline is None and token_only.token is not None


def test_ambient_control_check(g):
    control = RunControl(deadline=Deadline(0.0))
    control_check("deep-site")  # nothing active: no-op
    with activate_control(control):
        with pytest.raises(DeadlineExceeded) as exc:
            control_check("deep-site")
    assert exc.value.where == "deep-site"
    control_check("deep-site")  # deactivated again


def test_retry_policy_deterministic_capped_delays():
    policy = RetryPolicy(retries=3, backoff_s=0.5, cap_s=1.0, jitter_seed=7)
    assert policy.attempts == 4
    delays = [policy.delay(r) for r in range(4)]
    assert delays == [RetryPolicy(retries=3, backoff_s=0.5, cap_s=1.0,
                                  jitter_seed=7).delay(r) for r in range(4)]
    assert all(0.0 < d <= 1.0 for d in delays)  # jitter in [0.5, 1.0]*raw
    assert RetryPolicy(backoff_s=0.0).delay(5) == 0.0
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)


def test_circuit_breaker_lifecycle():
    br = CircuitBreaker("t", failure_threshold=2, cooldown=2,
                        half_open_probes=1)
    assert br.allow() and br.state == br.CLOSED
    assert not br.record_failure("one")
    assert br.record_failure("two")  # threshold reached: trips
    assert br.state == br.OPEN
    assert not br.allow() and not br.allow()  # cooldown burns per consult
    assert br.allow()  # half-open admits the probe
    assert br.state == br.HALF_OPEN
    br.record_success()
    assert br.state == br.CLOSED
    snap = br.snapshot()
    assert snap["trips"] == 1 and snap["recoveries"] == 1
    assert snap["rejections"] == 2 and snap["last_reason"] == "two"


def test_circuit_breaker_failed_probe_reopens():
    br = CircuitBreaker(failure_threshold=1, cooldown=1)
    br.record_failure("boom")
    assert not br.allow()  # cooldown
    assert br.allow()      # probe
    assert br.record_failure("probe failed")  # re-trips immediately
    assert br.state == br.OPEN
    assert br.snapshot()["trips"] == 2
    br.reset()
    assert br.state == br.CLOSED and br.allow()


# ---------------------------------------------------------- checkpoints
def _ckpt(tmp_path, name="state.ckpt"):
    return str(tmp_path / name)


def test_checkpoint_write_read_round_trip(tmp_path):
    path = _ckpt(tmp_path)
    meta = {"round": 3, "mode": "stream", "fingerprint": "abc"}
    colors = np.arange(32, dtype=np.int32)
    write_checkpoint(path, meta, {"colors": colors})
    got_meta, got_arrays = read_checkpoint(path)
    assert got_meta == meta
    assert np.array_equal(got_arrays["colors"], colors)


def test_checkpoint_torn_and_corrupt_are_distinguished(tmp_path):
    path = _ckpt(tmp_path)
    write_checkpoint(path, {"round": 1}, {"a": np.zeros(8)})
    blob = open(path, "rb").read()
    torn = _ckpt(tmp_path, "torn.ckpt")
    with open(torn, "wb") as fh:
        fh.write(blob[:-10])
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint(torn)
    assert exc.value.reason == "torn"
    corrupt = _ckpt(tmp_path, "corrupt.ckpt")
    damaged = bytearray(blob)
    damaged[-4] ^= 0xFF
    with open(corrupt, "wb") as fh:
        fh.write(bytes(damaged))
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint(corrupt)
    assert exc.value.reason == "corrupt"
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint(_ckpt(tmp_path, "nope.ckpt"))
    assert exc.value.reason == "missing"
    garbage = _ckpt(tmp_path, "garbage.ckpt")
    with open(garbage, "wb") as fh:
        fh.write(b"not a checkpoint at all\n")
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint(garbage)
    assert exc.value.reason == "not-a-checkpoint"
    assert exc.value.to_dict()["reason"] == "not-a-checkpoint"


def test_load_resume_fingerprint_mismatch_strict_vs_degrade(tmp_path):
    path = _ckpt(tmp_path)
    fp = run_fingerprint("digest", "stream", "data-ldg", {}, 4)
    other = run_fingerprint("digest", "stream", "data-ldg", {}, 5)
    assert fp != other
    ck = Checkpointer(path, fingerprint=fp, every=1)
    ck.save(2, {"mode": "stream"}, {"colors": np.ones(4, dtype=np.int32)})
    meta, arrays = load_resume(path, fingerprint=fp)
    assert meta["round"] == 2 and "colors" in arrays
    # wrong fingerprint, no degradation allowed -> structured raise
    with pytest.raises(CheckpointError) as exc:
        load_resume(path, fingerprint=other)
    assert exc.value.reason == "fingerprint-mismatch"
    # degradation-permitting policy -> fresh start, chain recorded
    rb = resolve_robustness("seed=1", "default")
    assert load_resume(path, fingerprint=other, robustness=rb) is None
    chains = [d["chain"] for d in rb.report()["degradations"]]
    assert "checkpoint" in chains
    # a missing file is always a fresh start, never a degradation
    assert load_resume(_ckpt(tmp_path, "new.ckpt"), fingerprint=fp) is None


def test_checkpointer_cadence_and_stats(tmp_path):
    path = _ckpt(tmp_path)
    ck = Checkpointer(path, fingerprint="fp", every=2)
    assert not ck.due(0) and not ck.due(1) and ck.due(2) and ck.due(4)
    assert not ck.save(1, {}, {"a": np.zeros(2)})
    assert ck.save(0, {}, {"a": np.zeros(2)}, force=True)
    assert ck.save(2, {}, {"a": np.zeros(2)})
    stats = ck.stats()
    assert stats["written"] == 2 and stats["last_round"] == 2
    assert stats["bytes_written"] > 0 and stats["every"] == 2
    with pytest.raises(ValueError):
        Checkpointer(path, fingerprint="fp", every=0)


# ------------------------------------- deadline enforcement, every layer
def test_deadline_zero_engine_run_fails_at_round_boundary(g):
    with pytest.raises(DeadlineExceeded) as exc:
        color_graph(g, "data-ldg", deadline_ms=1e-4)
    assert "round" in exc.value.where


def test_deadline_zero_host_scheme_fails_at_dispatch(g):
    with pytest.raises(DeadlineExceeded) as exc:
        color_graph(g, "sequential", deadline_ms=1e-4)
    assert exc.value.where == "dispatch"


def test_deadline_zero_sharded_streamed_distributed(g):
    with pytest.raises(DeadlineExceeded):
        color_sharded(g, "data-ldg", num_shards=3, deadline_ms=1e-4)
    with pytest.raises(DeadlineExceeded) as exc:
        color_sharded(g, "data-ldg", num_shards=3, stream=True,
                      deadline_ms=1e-4)
    assert exc.value.where == "window"
    with pytest.raises(DeadlineExceeded) as exc:
        color_distributed(g, "data-ldg", devices=2, deadline_ms=1e-4)
    assert exc.value.where == "shard"


def test_deadline_zero_run_jobs_is_structured(g):
    jobs = [ColorJob(g, "data-ldg", {})]
    with pytest.raises(DeadlineExceeded):
        run_jobs(jobs, deadline_ms=1e-4)


def test_generous_deadline_changes_nothing(g, healthy):
    r = color_graph(g, "data-ldg", deadline_ms=60_000.0)
    assert np.array_equal(r.colors, healthy.colors)
    r = color_sharded(g, "data-ldg", num_shards=3, deadline_ms=60_000.0)
    sharded = color_sharded(g, "data-ldg", num_shards=3)
    assert np.array_equal(r.colors, sharded.colors)


def test_deadline_storm_forces_expiry_mid_run(g):
    with pytest.raises(DeadlineExceeded) as exc:
        color_streamed(
            g, "data-ldg", num_windows=4, deadline_ms=60_000.0,
            faults="seed=1; deadline-storm: round=2, phase=window",
        )
    assert exc.value.where == "window:forced"


def test_context_and_deadline_ms_are_exclusive(g):
    from repro.engine import ExecutionContext

    ctx = ExecutionContext()
    with pytest.raises(ValueError, match="deadline_ms"):
        color_graph(g, "data-ldg", context=ctx, deadline_ms=10.0)


# ------------------------------------------- halo faults heal digestwise
@pytest.mark.parametrize("site", ["halo-drop", "halo-corrupt"])
def test_halo_damage_heals_byte_identically(g, site):
    clean = color_distributed(g, "data-ldg", devices=3)
    hurt = color_distributed(
        g, "data-ldg", devices=3,
        faults=f"seed=5; {site}: round=0",
    )
    assert np.array_equal(hurt.colors, clean.colors)
    report = hurt.robustness
    assert any(f["site"] == site for f in report["fired"])
    assert any(d["chain"] == "halo" for d in report["degradations"])


def test_transport_partition_heals_byte_identically(g):
    clean = color_distributed(g, "data-ldg", devices=3)
    hurt = color_distributed(
        g, "data-ldg", devices=3,
        faults="seed=5; transport-partition: round=0",
    )
    assert np.array_equal(hurt.colors, clean.colors)
    assert any(d["chain"] == "halo"
               for d in hurt.robustness["degradations"])


def test_halo_reorder_is_commutativity_check_not_degradation(g):
    clean = color_distributed(g, "data-ldg", devices=3)
    hurt = color_distributed(
        g, "data-ldg", devices=3,
        faults="seed=5; halo-reorder: round=0",
    )
    assert np.array_equal(hurt.colors, clean.colors)
    report = hurt.robustness
    assert any(f["site"] == "halo-reorder" for f in report["fired"])
    assert not any(d["chain"] == "halo" for d in report["degradations"])


# --------------------------------------------------- robustness annexes
def test_checkpoint_stats_and_deadline_annex_on_result(g, tmp_path):
    r = color_streamed(
        g, "data-ldg", num_windows=3, deadline_ms=60_000.0,
        checkpoint=str(tmp_path / "s.ckpt"),
    )
    report = r.robustness
    assert report is not None
    assert report["checkpoint"]["written"] >= 1
    assert report["deadline"]["deadline_ms"] == 60_000.0
    assert report["deadline"]["running_ms"] >= 0.0


def test_corrupt_checkpoint_degrades_to_fresh_or_raises(g, tmp_path):
    path = str(tmp_path / "d.ckpt")
    clean = color_streamed(g, "data-ldg", num_windows=3, checkpoint=path)
    # bit-rot the blob on disk (past the header), like a bad disk block
    blob = bytearray(open(path, "rb").read())
    blob[-8] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    # default policy: unreadable checkpoint -> fresh start, chain recorded
    resumed = color_streamed(g, "data-ldg", num_windows=3, resume=path,
                             health="default")
    assert np.array_equal(resumed.colors, clean.colors)
    degr = resumed.robustness["degradations"]
    assert any(d["chain"] == "checkpoint" and d["reason"] == "corrupt"
               for d in degr)
    # strict policy: the same damage is a structured raise
    with pytest.raises(CheckpointError) as exc:
        color_streamed(g, "data-ldg", num_windows=3, resume=path,
                       health="strict")
    assert exc.value.reason == "corrupt"


# ------------------------------------------------- transport lifecycle
def test_pool_transport_close_is_idempotent_and_refuses_work():
    from repro.distributed.transport import PoolTransport

    t = PoolTransport(workers=2)
    t.close()
    t.close()  # closing twice is a no-op, not an error
    with pytest.raises(RuntimeError, match="closed"):
        t.run_shards([])


def test_closed_transport_rejected_by_color_distributed(g):
    from repro.distributed.transport import PoolTransport

    t = PoolTransport(workers=2)
    t.close()
    with pytest.raises(RuntimeError, match="closed"):
        color_distributed(g, "data-ldg", devices=2, transport=t)
