"""Kill-and-resume equivalence: resumed runs are byte-identical.

The resilience tier's core promise is that a run killed at *any* round
boundary and resumed from its last checkpoint produces exactly the
coloring (and stats) an uninterrupted run produces.  Hypothesis drives
the kill round and checkpoint cadence; the ``deadline-storm`` fault site
is the deterministic kill switch (it forces the budget to expire at a
chosen round, exactly where a real deadline or crash would land).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import color_sharded, rmat_er
from repro.distributed import color_distributed
from repro.parallel.streaming import color_streamed
from repro.resilience import DeadlineExceeded


@pytest.fixture(scope="module")
def g():
    return rmat_er(scale=8, seed=17)


@pytest.fixture(scope="module")
def healthy_streamed(g):
    return color_streamed(g, "data-ldg", num_windows=4)


@pytest.fixture(scope="module")
def healthy_distributed(g):
    return color_distributed(g, "data-ldg", devices=3)


@settings(max_examples=10, deadline=None)
@given(kill_round=st.integers(min_value=1, max_value=3),
       every=st.integers(min_value=1, max_value=2))
def test_streamed_kill_resume_byte_identical(
        g, healthy_streamed, tmp_path_factory, kill_round, every):
    path = str(tmp_path_factory.mktemp("ckpt") / "stream.ckpt")
    with pytest.raises(DeadlineExceeded) as exc:
        color_streamed(
            g, "data-ldg", num_windows=4,
            checkpoint=path, checkpoint_every=every,
            faults=f"seed=1; deadline-storm: round={kill_round}, "
                   f"phase=window",
        )
    assert exc.value.where == "window:forced"
    # A kill before the first due save leaves no file: resume is then a
    # legitimate fresh start (missing checkpoints are never an error).
    had_checkpoint = os.path.exists(path)
    resumed = color_streamed(g, "data-ldg", num_windows=4, resume=path)
    assert np.array_equal(resumed.colors, healthy_streamed.colors)
    assert resumed.num_colors == healthy_streamed.num_colors
    assert resumed.shard_stats["resolution_rounds"] == \
        healthy_streamed.shard_stats["resolution_rounds"]
    if had_checkpoint:
        assert resumed.robustness["resumed"]["path"] == path


@settings(max_examples=8, deadline=None)
@given(kill_round=st.integers(min_value=0, max_value=3))
def test_distributed_kill_resume_byte_identical(
        g, healthy_distributed, tmp_path_factory, kill_round):
    path = str(tmp_path_factory.mktemp("ckpt") / "dist.ckpt")
    healthy_rounds = healthy_distributed.shard_stats["sync_rounds"]
    try:
        color_distributed(
            g, "data-ldg", devices=3, checkpoint=path,
            faults=f"seed=1; deadline-storm: round={kill_round}, "
                   f"phase=sync",
        )
        # a kill round past convergence never fires; nothing to resume
        assert kill_round >= healthy_rounds
        return
    except DeadlineExceeded as exc:
        assert exc.where == "sync-round:forced"
    resumed = color_distributed(g, "data-ldg", devices=3, resume=path)
    assert np.array_equal(resumed.colors, healthy_distributed.colors)
    # distributed stats must also match the uninterrupted run: the halo
    # state is rebuilt from the checkpointed colors, not re-derived
    for key in ("sync_rounds", "halo_bytes_modeled", "speculation_hits",
                "resolution_rounds"):
        assert resumed.shard_stats[key] == \
            healthy_distributed.shard_stats[key], key
    assert resumed.robustness["resumed"]["round"] >= 0


@pytest.mark.parametrize("kill_round", [0, 1, 2])
def test_sharded_kill_resume_byte_identical(g, tmp_path, kill_round):
    # Six shards cut enough edges that the repair phase runs.
    healthy = color_sharded(g, "data-ldg", num_shards=6)
    assert healthy.shard_stats["resolution_rounds"] >= kill_round
    path = str(tmp_path / "sharded.ckpt")
    with pytest.raises(DeadlineExceeded) as exc:
        color_sharded(
            g, "data-ldg", num_shards=6, checkpoint=path,
            faults=f"seed=1; deadline-storm: round={kill_round}, "
                   f"phase=repair",
        )
    assert exc.value.where == "round:forced"
    resumed = color_sharded(g, "data-ldg", num_shards=6, resume=path)
    assert np.array_equal(resumed.colors, healthy.colors)
    assert resumed.shard_stats["resolution_rounds"] == \
        healthy.shard_stats["resolution_rounds"]
    assert resumed.robustness["resumed"]["round"] == kill_round


def test_resume_of_a_completed_run_is_idempotent(g, healthy_streamed,
                                                 tmp_path):
    path = str(tmp_path / "done.ckpt")
    done = color_streamed(g, "data-ldg", num_windows=4, checkpoint=path)
    assert np.array_equal(done.colors, healthy_streamed.colors)
    again = color_streamed(g, "data-ldg", num_windows=4, resume=path,
                           checkpoint=path)
    assert np.array_equal(again.colors, healthy_streamed.colors)


def test_repair_phase_kill_resumes_byte_identically(g, tmp_path):
    # A denser cut maximizes boundary conflicts so the Jacobi repair
    # phase actually runs; kill inside it, then resume.
    healthy = color_streamed(g, "data-ldg", num_windows=6)
    path = str(tmp_path / "repair.ckpt")
    try:
        color_streamed(
            g, "data-ldg", num_windows=6, checkpoint=path,
            faults="seed=1; deadline-storm: round=0, phase=repair",
        )
        pytest.skip("no repair rounds on this graph/window split")
    except DeadlineExceeded as exc:
        assert exc.where == "round:forced"
    resumed = color_streamed(g, "data-ldg", num_windows=6, resume=path)
    assert np.array_equal(resumed.colors, healthy.colors)
